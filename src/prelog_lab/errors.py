"""Exception types shared across the package.

Domain and validation failures raise plain ValueError (or ScenarioError for
scenario files, which subclasses it), unsupported models included.  The class
here marks conditions that arise during numerical work on otherwise valid
inputs, degenerate Monte Carlo samples included.
"""


class NumericalError(RuntimeError):
    """A numerical procedure failed to reach its accuracy or feasibility target."""
