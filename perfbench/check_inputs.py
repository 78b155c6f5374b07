"""Load a generated experiment config with the program's own loader.

    python3 perfbench/check_inputs.py CONFIG_JSON

Needs `src` on PYTHONPATH. Exits 0 when the loader accepts the config;
this is the last step of each workload's set-up. A corpus directory the
config names is not loaded: the timed command loads it, and loading it
here too would count that loader twice.
"""

import sys

from landmark_frames.experiment import load_experiment_config


def main(argv) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        load_experiment_config(fh.read())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
