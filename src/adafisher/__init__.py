"""AdaFisher training engine: gradient steps divided by a damped diagonal
block-Kronecker Fisher, with verification oracles and diagnostics; K workers
are BatchNorm's ghost batches within one training step."""

from .errors import (AdaFisherError, ConfigError, DataError, DimensionError,
                     FormatError, InputError, NumericError, SizeError,
                     StateError, UnsupportedError)
from .nn import (Activation, BatchNorm, Conv2d, Dense, Flatten, LayerNorm,
                 MaxPool2d, Model, cross_entropy, finite_diff_grad, mse, softmax)
from .optim import (Adam, AdaFisher, Optimizer, Schedule, SGD, build_optimizer,
                    minmax_normalize)

__version__ = "0.1.0"
