from .tensor import DiffTensor, backward, set_verify
from .ops import (attention_gate, bce_with_logits, conv2d,
                  conv_bn_relu, matmul, maxpool2, mean_all, mul, scale,
                  sigmoid_np, sum_all, upconv2)
from .optim import AdamWState, adamw_step
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "DiffTensor", "backward", "set_verify",
    "attention_gate", "bce_with_logits", "conv2d",
    "conv_bn_relu", "matmul", "maxpool2", "mean_all", "mul", "scale",
    "sigmoid_np", "sum_all", "upconv2",
    "AdamWState", "adamw_step",
    "load_checkpoint", "save_checkpoint",
]
