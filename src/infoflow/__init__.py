"""Absorbing-Markov-chain evaluation of stakeholder information flow.

Stakeholders form the transient states of an absorbing Markov chain whose
absorbing end states are DI (information discarded), S (community satisfied)
and US (community unsatisfied). Each stakeholder's observed outgoing flow
counts N give it the conjugate flat-prior posterior Dirichlet(1 + N). The
chain is evaluated from the posterior mean or from seeded Monte Carlo over
posterior draws, which propagates that uncertainty into the probability of
ending satisfied, and ineffective-flow sweeps rank stakeholders by how much
their discarding hurts that probability.

A command imports only the modules it runs. So this namespace is lazy
(PEP 562): `_EXPORTS` maps each public name to its home submodule, which is
imported the first time the name is read, and `import infoflow` alone
imports none of them (nor numpy).
"""

import sys

__version__ = "0.1.0"

# public name -> its home submodule; a submodule maps to itself
_EXPORTS = {
    **{name: name for name in ("cli", "dirichlet", "documents", "errors", "markov", "network",
                               "sensitivity", "simulation")},
    **dict.fromkeys(("CountVector", "DirichletParams", "noninformative_posterior"), "dirichlet"),
    **dict.fromkeys(("input_digest", "network_to_document", "parse_network"), "documents"),
    **dict.fromkeys(("AbsorptionResult", "TransitionMatrix", "absorption_probabilities",
                     "build_canonical"), "markov"),
    **dict.fromkeys(("FlowRecord", "NetworkSpec", "Stakeholder", "ValidationReport",
                     "plug_in_chain", "sampled_chain", "validate"), "network"),
    **dict.fromkeys(("SweepResult", "impact_ratio", "rank_details", "reallocate",
                     "sweep_ineffective"), "sensitivity"),
    **dict.fromkeys(("SimulationSummary", "run", "summarize"), "simulation"),
}

__all__ = [*_EXPORTS, "reference_network_path", "load_reference_network"]


def __getattr__(name: str):
    try:
        home = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # __import__, not importlib.import_module: `python -X importtime` lists
    # only imports made through it, and `from . import documents` in a
    # submodule lands here.
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    value = module if name == home else getattr(module, name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})


def reference_network_path():
    """Traversable path of the bundled reference network document."""
    from importlib import resources

    return resources.files("infoflow").joinpath("data/reference_network.json")


def load_reference_network():
    """Parse the bundled reference network into a NetworkSpec."""
    from .documents import parse_network

    return parse_network(reference_network_path().read_bytes())
