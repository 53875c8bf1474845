"""Exception types shared across the package."""


class CurveformError(Exception):
    pass


class DivisionByZero(CurveformError, ZeroDivisionError):
    pass


class ParameterOffCurve(CurveformError, ValueError):
    """(q, p) is off p^2 = q^2 + q^3; carries the residual, shown as "= value" or by size."""

    def __init__(self, residual, shown):
        self.residual = residual
        super().__init__(f"point is off the curve, residual p^2 - q^2 - q^3 {shown}")


class UsageError(CurveformError, ValueError):
    """Malformed input from the command line."""


class ArityMismatch(CurveformError, ValueError):
    pass


class ParseError(CurveformError, ValueError):
    def __init__(self, message, position, expected=()):
        self.position = position
        self.expected = tuple(expected)
        super().__init__(f"{message} at position {position}"
                         + (f" (expected one of: {', '.join(self.expected)})" if expected else ""))


class NotPatternWord(CurveformError, ValueError):
    """A word outside the basis pattern x^i y^j (ax)^l a^m b^n, met where a
    normal-form word was expected; carries the word."""

    def __init__(self, word):
        self.word = word
        super().__init__(f"{word!r} is not a pattern word")


class FuelExhausted(CurveformError, RuntimeError):
    """Reduction ran out of fuel; carries the partially reduced element, the
    steps taken and the step budget."""

    def __init__(self, partial, steps, budget):
        self.partial = partial
        self.steps = steps
        self.budget = budget
        super().__init__(f"reduction of {partial} exhausted its fuel: "
                         f"{steps} steps taken, budget {budget}")


class NonOrientable(CurveformError, RuntimeError):
    """Completion found a difference polynomial with no admissible left-hand
    side: no word of it is above all the others in the termination order,
    or that word is empty or a target word.  Carries the difference and
    the witness of the ambiguity it came from (None when rank or orient
    was called directly)."""

    def __init__(self, difference, witness=None):
        self.difference = difference
        self.witness = witness
        super().__init__(f"no monomial of {difference} is eligible as a rule lhs")


class NotAUnit(CurveformError, ArithmeticError):
    """A coefficient with no inverse in its ring: a QPoly that is not a
    nonzero constant, met as the leading coefficient of a completed rule.
    Carries the value and the witness of the ambiguity it came from (None
    when inverse was called directly)."""

    def __init__(self, value, witness=None):
        self.value = value
        self.witness = witness
        super().__init__(f"{value} is not a unit" + (
            f": the leading coefficient of the difference at {witness}" if witness else ""))


class LimitExceeded(CurveformError, RuntimeError):
    pass
