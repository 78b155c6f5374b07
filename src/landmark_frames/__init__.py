"""Information content of landmark frames in frame-synchronous decoding.

The package measures how phone error rate reacts when per-frame
acoustic scores are dropped, replaced, or re-weighted before Viterbi
decoding: build a drop mask (regular, random, or landmark-guided),
rewrite the dropped rows, decode, score against the reference phones,
and test the change for significance.
"""

from .corpus_io import (
    MANNERS,
    FRAME_SHIFT,
    NEG_INF,
    Corpus,
    FrameMask,
    PhoneAlignment,
    ScoreMatrix,
    Utterance,
    format_alignment,
    format_csv,
    parse_alignment,
    read_manner_table,
    read_score_matrix,
    read_score_matrix_text,
    write_manner_table,
    write_mask,
    write_score_matrix,
    write_score_matrix_text,
)
from .decoder import (
    NORMALIZATION_TOL,
    DecodeResult,
    TransitionModel,
    collapse_states,
    read_transition_model,
    viterbi,
    write_transition_model,
)
from .errors import (
    BeamCollapse,
    DegenerateBaseline,
    DegenerateTest,
    EmptyInput,
    FormatError,
    InvalidConfig,
    InvalidPattern,
    LandmarkFramesError,
    MalformedAlignment,
    ParseError,
    ScoreOverflow,
    ShapeError,
    UnknownPhone,
    UnknownSenone,
)
from .experiment import (
    BASELINE,
    REPORT_FORMATS,
    SWEEP_PARAMETERS,
    ExperimentConfig,
    StrategyOutcome,
    compute_outcomes,
    format_plot_svg,
    format_report_csv,
    format_sweep_svg,
    load_experiment_config,
    run_experiment,
    sweep,
)
from .landmarks import (
    ANNOTATION_MODES,
    DEFAULT_TIMIT_MANNERS,
    END_OFFSET_FRAC,
    LANDMARK_TYPES,
    START_OFFSET_FRAC,
    AnnotationConfig,
    LandmarkSet,
    annotate,
    frame_map,
    landmark_fraction,
    landmark_frames,
    read_landmarks,
    write_landmarks,
)
from .scoring import (
    PERReport,
    align_edit,
    edit_ops,
    merge_reports,
    normalized_error_increment,
    per_increment,
    write_confusion_csv,
    write_report_csv,
)
from .stats import (
    EXACT_WILCOXON_MAX_N,
    FoldSpec,
    StatResult,
    cv_folds,
    summarize_cv,
    welch_t,
    wilcoxon_signed_rank,
    write_stats_csv,
)
from .strategy import (
    INTERP_TAPS,
    REPLACEMENT_METHODS,
    StrategySpec,
    adjust_mask_to_rate,
    apply_replacement,
    apply_weights,
    design_interp_filter,
    mask_random,
    mask_regular,
    parse_strategy,
    realize_strategy,
)
from .synth import SynthConfig, gen_corpus, parse_synth_config

__version__ = "0.1.0"
