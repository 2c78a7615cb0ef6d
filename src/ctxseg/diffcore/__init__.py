from .tensor import DiffTensor, backward, set_verify
from .ops import (add_const, add_rowvec, bce_with_logits, check_finite,
                  concat_channels, conv2d, conv_bn_relu, matmul, maxpool2,
                  mean_all, mul, reshape, rowsoftmax, scale, sigmoid_np,
                  sum_all, tanh, transpose2, upconv2)
from .optim import AdamWState, adamw_step, zero_grads
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "DiffTensor", "backward", "set_verify",
    "add_const", "add_rowvec", "bce_with_logits", "check_finite",
    "concat_channels", "conv2d", "conv_bn_relu", "matmul", "maxpool2",
    "mean_all", "mul", "reshape", "rowsoftmax", "scale", "sigmoid_np",
    "sum_all", "tanh", "transpose2", "upconv2",
    "AdamWState", "adamw_step", "zero_grads",
    "load_checkpoint", "save_checkpoint",
]
