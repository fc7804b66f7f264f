"""Public run API: typed configs + the Session lifecycle object.

The facade over the registries: a :class:`RunConfig` (frozen, validated,
JSON-round-trippable) describes a run; a :class:`Session` executes it —
``fit()`` / ``evaluate()`` / ``predict()`` / ``save_config()``.  Training
callbacks (:class:`Callback`, :class:`EarlyStoppingCallback`, …) are
re-exported from :mod:`repro.train.callbacks` for convenience.
"""

from ..train.callbacks import (
    Callback,
    CallbackList,
    EarlyStoppingCallback,
    EpochLogger,
)
from .config import (
    DataConfig,
    EngineConfig,
    ModelConfig,
    RunConfig,
    TrainConfig,
)
from ..graph import InvalidNodeIdsError
from .session import Session

__all__ = [
    "DataConfig",
    "ModelConfig",
    "EngineConfig",
    "TrainConfig",
    "RunConfig",
    "Session",
    "InvalidNodeIdsError",
    "Callback",
    "CallbackList",
    "EarlyStoppingCallback",
    "EpochLogger",
]
