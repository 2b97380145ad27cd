"""CSI-fingerprint indoor positioning: data, models, training, evaluation."""

__version__ = "0.1.0"

from .data import (Dataset, NormStats, SplitStrategy, SynthConfig,
                   apply_normalizer, channel_response, fit_normalizer,
                   generate_synthetic, import_npy, load_canonical, split,
                   split_indices, write_canonical)
from .errors import (CheckpointError, CsilocError, DataFormatError,
                     DegenerateGeometryError, ShapeError, TrainingDivergedError)
from .evaluation import EvalReport, emit_reports, evaluate, mde, nmde, rmse
from .layers import (AvgPool1xP, Conv1xK, Dense, Flatten, Param, ReLU,
                     ResidualUnit, conv_out_width, same_padding)
from .models import (ArchConfig, DEFAULT_ARCH, build_model, count_weights,
                     load_checkpoint, save_checkpoint, weights_millions)
from .network import GradCheckResult, Network, gradient_check, mde_loss
from .train import (PlateauSchedule, TrainConfig, TrainHistory,
                    sgd_momentum_step, train)
