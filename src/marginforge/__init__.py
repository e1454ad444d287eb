"""marginforge: maximum-margin gait feature learning and evaluation.

The package learns linear feature transforms from labeled gait cycles,
matches templates with a Mahalanobis metric, and evaluates both class
separability and rank/threshold recognition metrics under a nested
cross-validation protocol.
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
    identity_transform,
    learn_mmc,
    learn_pcalda,
    load_transform,
    margin_trace,
    mmc_objective,
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
from .scatter import ScatterStatistics, compute_scatter
from .template_space import (
    MatchingContext,
    context_of_rows,
    pairwise_distances,
    template_rows,
)

__version__ = "0.1.0"
