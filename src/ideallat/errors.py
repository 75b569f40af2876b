"""Exception hierarchy shared by the library and the CLI.

CLI exit-code mapping: usage errors exit 1, ResourceError exits 3 and
every other library error, ArityError included, exits 2.
"""


class IdealLatError(Exception):
    """Base class for all library errors."""


class ArityError(IdealLatError):
    """Operands disagree on variable count or coefficient modulus."""


class DomainError(IdealLatError):
    """An input violates an operation's precondition."""


class ParseError(DomainError):
    """Polynomial text or JSON does not match the grammar."""


class ValidationError(DomainError):
    """A parameter set fails one or more named invariant checks."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class InfiniteDimensionError(DomainError):
    """The quotient is not finitely generated as a module."""

    def __init__(self, variable):
        self.variable = variable
        super().__init__(
            "quotient is infinite-dimensional: variable %s has no pure power "
            "with unit leading-coefficient content among the basis leading terms"
            % variable
        )


class RepresentationError(DomainError):
    """Coordinates were requested on a quotient that is not free."""


class InfeasibleError(DomainError):
    """No element satisfying the requested bound exists within the search."""


class DegenerateCollisionError(DomainError):
    """The collision oracle returned a zero difference; the call may be retried."""


class NumericDegeneracyError(DomainError):
    """A floating-point subproblem was singular or lost too much precision."""


class ResourceError(IdealLatError):
    """A configured pair or enumeration budget was exceeded."""
