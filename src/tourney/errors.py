"""Exception types shared across the solver modules."""


class ParameterError(ValueError):
    """A model parameter or input is outside its admissible range."""


class InteriorityError(RuntimeError):
    """No interior equilibrium candidate exists for these parameters.

    Raised when the prize is too small to support positive continuation
    values, or when a noise contest saturates so marginal incentives vanish.
    """


class SolverError(RuntimeError):
    """A solution could not be computed to certification: a root failed to
    certify, or a closed form left the float range."""
