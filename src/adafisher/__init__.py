"""AdaFisher training engine: diagonal block-Kronecker Fisher preconditioning
with verification oracles, diagnostics and a distributed-training simulator."""

from .errors import (AdaFisherError, ConfigError, DataError, DimensionError,
                     FormatError, InputError, NumericError, SizeError,
                     StateError, UnsupportedError)
from .kfactor import (FactoredEFIM, KFState, efim_assemble, ema_update,
                      minmax_normalize, precondition)
from .nn import (Activation, BatchNorm, Conv2d, Dense, Flatten, LayerCapture,
                 LayerNorm, MaxPool2d, Model, cross_entropy, finite_diff_grad,
                 mse, softmax)
from .optim import (Adam, AdaFisher, Optimizer, Schedule, SGD, adafisherw, adamw,
                    build_optimizer)
from .tensor import Rng, kron_diag

__version__ = "0.1.0"
