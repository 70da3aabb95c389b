"""Absorbing-Markov-chain evaluation of stakeholder information flow.

Stakeholders form the transient states of an absorbing Markov chain whose
absorbing end states are DI (information discarded), S (community satisfied)
and US (community unsatisfied). Each stakeholder's observed outgoing flow
counts N give it the conjugate flat-prior posterior Dirichlet(1 + N). The
chain is evaluated from the posterior mean or from seeded Monte Carlo over
posterior draws, which propagates that uncertainty into the probability of
ending satisfied, and ineffective-flow sweeps rank stakeholders by how much
their discarding hurts that probability.
"""

from importlib import resources

from . import cli, dirichlet, documents, errors, markov, network, sensitivity, simulation
from .dirichlet import CountVector, DirichletParams, noninformative_posterior
from .documents import input_digest, network_to_document, parse_network
from .markov import (
    AbsorptionResult,
    TransitionMatrix,
    absorption_probabilities,
    build_canonical,
)
from .network import (
    FlowRecord,
    NetworkSpec,
    Stakeholder,
    ValidationReport,
    plug_in_chain,
    sampled_chain,
    validate,
)
from .sensitivity import (
    SweepResult,
    impact_ratio,
    rank_details,
    reallocate,
    sweep_ineffective,
)
from .simulation import SimulationSummary, run, summarize

__version__ = "0.1.0"


def reference_network_path():
    """Traversable path of the bundled reference network document."""
    return resources.files("infoflow").joinpath("data/reference_network.json")


def load_reference_network() -> NetworkSpec:
    """Parse the bundled reference network."""
    return parse_network(reference_network_path().read_bytes())
