"""One seed through the chunk entries: the short forms in which tests run
one scenario at one depth, or step one seed's terms."""

from icfpie.dicf import CorrectionTerms, dicf_step
from icfpie.harness import run_once


def run_one(scenario, L, algorithms=None, diagnostics=False):
    """The RunMetrics of `scenario` at consensus depth L: a chunk of one
    seed over a grid of one depth."""
    return run_once([scenario], [L], algorithms, diagnostics)[0][L]


def step_one(prior, plan, terms, sys, log=None):
    """dicf_step on one seed's (N, ...) `terms`, as a chunk of one seed."""
    return dicf_step(prior, plan, CorrectionTerms(*(term[None] for term in terms)), sys, log)
