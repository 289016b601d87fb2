"""Outlier scoring on cluster catch digraphs.

Public surface: point-set handling (dataset), covering radii and the
digraph (graph), the two scores with thresholds (scores, whose
score_families scores several radius families in one pass), the LOF and
ODIN baselines (baselines), synthetic scenarios (simgen), and the Monte
Carlo comparison harness (bench).
"""

from .baselines import LofParams, OdinParams, lof, odin
from .bench import (
    Confusion,
    MetricSet,
    aggregate,
    evaluate_method,
    metrics,
    rank_methods,
    run_monte_carlo,
)
from .dataset import (
    MADN_CONSTANT,
    NeighborIndex,
    PointSet,
    build_index,
    load_csv,
    madn,
    robust_normalize,
    write_csv,
)
from .graph import (
    CatchDigraph,
    Clustering,
    RadiusStrategy,
    build_catch_digraph,
    cluster_digraph,
    default_k,
    estimate_radii,
    fixed_k,
    rk_approx,
    un_approx,
)
from .scores import (
    ScoreReport,
    THRESHOLDS,
    break_ties,
    cumulative_influence,
    default_threshold,
    flag_outliers,
    ios_raw,
    oos,
    score_families,
    score_point_set,
    standardize_ios,
    vicinity_density,
)
from .simgen import (
    MaskingFixture,
    SimConfig,
    gen_clusters,
    gen_neyman_scott,
    generate,
    inject_outliers,
    masking_fixture,
)

__version__ = "0.1.0"
