"""Streaming structure and parameter learning for sum-product networks
with Gaussian leaves, plus exact marginal, conditional, and sampling
queries on the learned models."""

from .gstats import GaussianStats
from .nodes import (LeafNode, NodePool, ProductNode, StructuralError, SumNode,
                    derived_weights, validate)
from .evaluate import (analytic_mean, compile_pool, conditional_log_density,
                       log_density, log_density_rows, sample)
from .learner import (EvalCache, LearnerConfig, fit, init_factored_pool,
                      learn_batch, make_mixture, merge_into_leaf, simplify)
from .model_io import (ModelFormatError, export_dot, load_model, pool_from_json,
                       pool_to_json, save_model)

__version__ = "0.1.0"

__all__ = [
    "GaussianStats",
    "LeafNode",
    "ProductNode",
    "SumNode",
    "NodePool",
    "StructuralError",
    "derived_weights",
    "validate",
    "analytic_mean",
    "compile_pool",
    "conditional_log_density",
    "log_density",
    "log_density_rows",
    "sample",
    "EvalCache",
    "LearnerConfig",
    "fit",
    "init_factored_pool",
    "learn_batch",
    "make_mixture",
    "merge_into_leaf",
    "simplify",
    "ModelFormatError",
    "export_dot",
    "load_model",
    "pool_from_json",
    "pool_to_json",
    "save_model",
    "__version__",
]
