"""totsim: a deterministic, seedable simulator of tip-of-the-tongue word
retrieval.

Words are bundles of three auto-associative component networks (semantic,
lexical, phonological) over bipolar spike patterns. Recall runs in three
stages: threshold selection of a word node from semantic input, stochastic
free/cued one-pass retrieval, and a metamemory comparator that stops the
attempt loop on an exact match. An experiment harness sweeps cue intensity,
damage, and input quality, and an exact oracle (closed form or split sums
over the free units) validates the stochastic engine.
"""

__version__ = "0.1.0"

# The names the README quickstart uses; everything else imports from its
# submodule (totsim.config, totsim.experiment, totsim.lexicon, ...).
from .config import parse_config
from .experiment import exact_success_prob, run_trials, summarize
from .network import train
from .patterns import random_pattern
from .recall import recall_component

__all__ = [
    "__version__",
    "exact_success_prob",
    "parse_config",
    "random_pattern",
    "recall_component",
    "run_trials",
    "summarize",
    "train",
]
