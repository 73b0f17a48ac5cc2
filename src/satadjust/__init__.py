"""Multi-view bias-compensated bundle adjustment for RPC satellite images.

The package rectifies RPC-modeled images onto a common height plane,
matches tie points along quasi-epipolar curves with a multi-block census
descriptor, links them into multi-view tracks, and solves for per-image
constant bias corrections through Schur-reduced normal equations whose
largest matrix is 2N x 2N for N images.
"""

from .errors import (
    ConfigInvalid,
    ConfigMismatch,
    DataError,
    DegenerateDenominator,
    EmptyFootprint,
    EmptyInput,
    IllConditioned,
    InsufficientSamples,
    NoConvergence,
    NumericalError,
    ParseError,
    RankDeficient,
    SatAdjustError,
    WindowOutOfBounds,
)
from .raster import Raster, bilinear_sample, read_pgm, write_pgm
from .rpc import (
    BiasCorrection,
    GroundPoint,
    ImagePoint,
    RpcModel,
    load_rpc_file,
    save_rpc_file,
)
from .rectify import (
    GroundBBox,
    Level2Product,
    common_gsd,
    common_plane_height,
    fit_rpc,
    load_product,
    rectify_image,
    save_product,
)
from .match import (
    describe_features,
    detect_corners,
    match_pair,
    select_pairs,
)
from .tracks import Track, build_tracks, track_stats
from .adjust import (
    AdjustmentResult,
    ObservationGraph,
    ReducedNormalSystem,
    ReprojectionReport,
    accumulate_reduced,
    adjust_loop,
    assemble,
    report,
    solve_bias,
    update_points,
)

__version__ = "0.1.0"
