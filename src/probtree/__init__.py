"""Tree-structured joint probability distributions over mixed tabular data.

Learns a recursive partition of the problem space from data; each leaf
holds a prior weight and independent univariate distributions (piecewise
linear CDFs for numeric variables, histograms for symbolic ones), forming
a tractable mixture model with exact, explainable posterior inference.
"""

from .data import (Assignment, AssignmentError, DataError, Dataset, Interval,
                   Variable, emit_csv, ingest_csv, make_assignment,
                   parse_assignment)
from .inference import (ZeroEvidenceError, event_probability,
                        expectation_query, leaf_posterior, log_likelihood,
                        mpe, posterior_distributions, sample)
from .learner import (Leaf, LearnerConfig, SplitCriterion, TreeModel,
                      impurity_improvement, learn)
from .model_io import ModelFormatError, dumps, export_dot, load, loads, save
from .multinomial import Multinomial
from .plcdf import (Dirac, DistributionError, PiecewiseLinearCDF,
                    build_quantile_dataset, cdf_learn)

__all__ = [
    "Assignment", "AssignmentError", "DataError", "Dataset", "Interval",
    "Variable", "emit_csv", "ingest_csv", "make_assignment", "parse_assignment",
    "ZeroEvidenceError", "event_probability", "expectation_query",
    "leaf_posterior", "log_likelihood", "mpe", "posterior_distributions",
    "sample", "Leaf", "LearnerConfig", "SplitCriterion", "TreeModel",
    "impurity_improvement", "learn", "ModelFormatError", "dumps", "export_dot",
    "load", "loads", "save", "Multinomial", "Dirac", "DistributionError",
    "PiecewiseLinearCDF", "build_quantile_dataset", "cdf_learn",
]

__version__ = "0.1.0"
