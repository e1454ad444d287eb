"""marginforge: maximum-margin gait feature learning and evaluation.

The package learns linear feature transforms from labeled gait cycles,
matches templates by Euclidean distance (the learned templates whiten
total scatter, so that distance is its Mahalanobis one; the identity
baseline matches the raw rows), and evaluates both class separability
and rank/threshold recognition metrics under a nested cross-validation
protocol.
"""

from .dataset import (
    GaitSample,
    LabeledDataset,
    SyntheticSpec,
    flatten_all,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from .errors import (
    AlignmentError,
    ContractError,
    DegenerateDataError,
    MarginforgeError,
    ParseError,
    SchemaError,
    ValidationError,
)
from .learners import (
    EigenSelection,
    FeatureTransform,
    learn_mmc,
    learn_pcalda,
    learner_for,
    load_transform,
    noise_floor_rank,
    save_transform,
    select_margin_columns,
)
from .metrics_classification import CurveSeries
from .metrics_separability import SeparabilityReport, separability_of_rows
from .preprocess import (
    align_walk_direction,
    average_length,
    center_on_root,
    dtw_distance,
    dtw_distances,
    filter_gait_cycles,
    resample_time,
)
from .protocol import (
    EvaluationReport,
    FoldPlan,
    ProtocolConfig,
    curve_csv_text,
    plan_folds,
    run_protocol,
)
from .reference import (
    MatchingContext,
    ScatterStatistics,
    compute_scatter,
    context_of_rows,
    margin_trace,
    mmc_objective,
)
from .template_space import pairwise_distances, template_rows

__version__ = "0.1.0"
