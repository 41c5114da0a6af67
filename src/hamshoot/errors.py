"""Exception hierarchy shared across the package."""


class HamshootError(Exception):
    """Base class for all package-specific errors."""


# --- expression language ---------------------------------------------------

class ExprError(HamshootError):
    pass


class ExprSyntaxError(ExprError):
    """Raised by the parser; carries the byte offset of the offending token."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnboundVariableError(ExprError):
    pass


class DomainError(ExprError):
    """Evaluation left the mathematical domain (ln of nonpositive, etc.)."""


# --- integration -----------------------------------------------------------

class IntegrationError(HamshootError):
    pass


class StepUnderflowError(IntegrationError):
    """Step size collapsed; suspected blowup or stiffness."""


class NonfiniteStateError(IntegrationError):
    pass


class OriginTooCloseError(HamshootError):
    """Planar component entered the exclusion disc during winding extraction."""


# --- homogeneous Hamiltonians ----------------------------------------------

class NonpositiveHamiltonianError(HamshootError):
    pass


# --- coupled systems / cutoff ----------------------------------------------

class DimensionMismatchError(HamshootError):
    pass


class MissingDecompositionError(HamshootError):
    pass


class RhoTooSmallError(HamshootError):
    pass


# --- solvers ----------------------------------------------------------------

class ShootingError(HamshootError):
    pass


class MaxIterationsError(ShootingError):
    pass


class SingularJacobianError(ShootingError):
    """No minimum-norm Newton step from a fine-flow J decreased the residual;
    the message gives the residual and cond(J), inf when J is singular."""


# --- condition checks --------------------------------------------------------

class IntegrationOverflowError(IntegrationError):
    """Field evaluation overflowed at large amplitude during a limit estimate."""


class SingularMatrixError(HamshootError):
    pass


# --- configuration / CLI ------------------------------------------------------

class ConfigError(HamshootError):
    pass


class ConfigParseError(ConfigError):
    pass


class ValidationError(ConfigError):
    """Collects every violation found while validating a config."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid config:\n" + "\n".join(f"  - {p}" for p in self.problems))
