"""Gated-frustum kit: simulate gated range-intensity imaging and lift 2D
detections to 3D boxes with a small learned codec regressor."""

from types import ModuleType as _ModuleType

from .camera import (
    CamPoint,
    CameraModel,
    DEFAULT_CAMERA,
    PixelPoint,
    calibration_to_json,
    load_calibration,
    wrap_to_pi,
)
from .codec import (
    FrustumCode,
    FrustumSegment,
    K_DEFAULT,
    decode,
    encode,
    frustum_segment,
    read_predictions,
    triangulate_depth,
)
from .errors import (
    AmbiguousRange,
    BehindCamera,
    ConfigError,
    DegenerateBox,
    EmptyDataset,
    FullyOutOfImage,
    GfkError,
    InsufficientSignal,
    InvalidAlbedo,
    InvalidStats,
    ModelParseError,
    NegativeRange,
    NonPositiveDepth,
    NonPositiveDimension,
    ParseError,
    ShapeMismatch,
    TrainingDiverged,
)
from .eval import (ApResult, EvalConfig, EvalReport, ap_40, evaluate, iou_2d, iou_3d, iou_bev,
                   read_boxes)
from .loss import LossWeights, smooth_l1
from .regressor import (
    MlpParams,
    TrainConfig,
    extract_features,
    init_params,
    predict,
    train,
)
from .ripsim import (
    GateConfig,
    GatedFrame,
    NOISELESS,
    NoiseConfig,
    RipTable,
    SPEED_OF_LIGHT,
    build_rip_table,
    default_gates,
    depth_from_ratios,
    render_frame,
    rip_value,
)
from .scene import (
    Box2D,
    Box3D,
    CAR,
    DEFAULT_CLASSES,
    LabeledObject,
    ObjectClass,
    PEDESTRIAN,
    SceneConfig,
    SceneDescription,
    SceneObject,
    oracle_box2d,
    perturb_box2d,
    read_labels,
    sample_scene,
)

__version__ = "0.1.0"

# Every public name imported above; the submodules themselves stay out.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
