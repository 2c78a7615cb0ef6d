from .tensor import DiffTensor, backward, set_verify
from .ops import (add, add_const, add_rowvec, batchnorm2d, bce_with_logits,
                  check_finite, concat_channels, conv2d, matmul, maxpool2,
                  mean_all, mul, relu, reshape, rowsoftmax, scale, sigmoid_np,
                  sum_all, tanh, transpose2, upconv2)
from .optim import AdamWState, adamw_step, zero_grads
from .gradcheck import FiniteDiffReport, finite_diff_check
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "DiffTensor", "backward", "set_verify",
    "add", "add_const", "add_rowvec", "batchnorm2d", "bce_with_logits",
    "check_finite", "concat_channels", "conv2d", "matmul", "maxpool2",
    "mean_all", "mul", "relu", "reshape", "rowsoftmax", "scale", "sigmoid_np",
    "sum_all", "tanh", "transpose2", "upconv2",
    "AdamWState", "adamw_step", "zero_grads",
    "FiniteDiffReport", "finite_diff_check",
    "load_checkpoint", "save_checkpoint",
]
