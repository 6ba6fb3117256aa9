"""weatherlpr: LiDAR weather-corruption benchmark and restoration toolkit."""

__version__ = "0.1.0"

from .pointcloud import (PointCloud, ProjectionSpec, RangeImage, back_project,
                         project, read_scan, write_scan)
from .weathersim import (CorruptionAnnotation, FogParams, RainParams, SnowParams,
                         corrupt_fog, corrupt_rain, corrupt_snow, severity_preset)
from .wavelet import dwt2, idwt2
from .restorenet import NetConfig, ResLPRNet, TrainOptions, train
from .lpr import PlaceDatabase, ScanContext, make_descriptor, sc_distance
from .metrics import MetricRow, RetrievalRecord, msr, recall_at_n, stability_rate
from .bench import RunConfig, make_synthetic_world, run_benchmark

__all__ = [
    "PointCloud", "ProjectionSpec", "RangeImage", "project", "back_project",
    "read_scan", "write_scan", "FogParams", "SnowParams", "RainParams",
    "CorruptionAnnotation", "corrupt_fog", "corrupt_snow", "corrupt_rain",
    "severity_preset", "dwt2", "idwt2", "NetConfig",
    "ResLPRNet", "TrainOptions", "train", "PlaceDatabase", "ScanContext",
    "make_descriptor", "sc_distance", "MetricRow", "RetrievalRecord",
    "recall_at_n", "stability_rate", "msr", "RunConfig",
    "make_synthetic_world", "run_benchmark",
]
