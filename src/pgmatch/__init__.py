"""Discrete-continuous policy-gradient attention for cross-modal matching."""

__version__ = "0.1.0"

from ._heap import keep_freed_pages
from .autodiff import Adam, Tensor, backward, clear_tape, grad_check
from .config import ModelConfig
from .data import SyntheticDataset, generate_dataset, load_dataset
from .model import MatchingModel
from .training import TrainResult, evaluate, run_ablation, train

__all__ = [
    "Adam",
    "MatchingModel",
    "ModelConfig",
    "SyntheticDataset",
    "Tensor",
    "TrainResult",
    "backward",
    "clear_tape",
    "evaluate",
    "generate_dataset",
    "grad_check",
    "load_dataset",
    "run_ablation",
    "train",
    "__version__",
]

keep_freed_pages()
