"""Exception types shared across the solver modules."""


class ParameterError(ValueError):
    """A model parameter or input is outside its admissible range."""


class InteriorityError(RuntimeError):
    """No interior equilibrium candidate exists for these parameters.

    Raised when the prize cannot support positive continuation values,
    and the message says on which side it lies: too small, or too large,
    which happens under the noise CSF, where the final's base effort
    outgrows its share of the prize.  Also raised when a noise contest
    saturates so marginal incentives vanish.
    """


class SolverError(RuntimeError):
    """A solution could not be computed to certification: a root failed to
    certify, or a closed form left the float range."""
