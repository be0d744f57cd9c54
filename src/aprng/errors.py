"""Exception types shared across the package: each is a ValueError, which
the CLI reports with exit code 2."""


class AlphabetError(ValueError):
    """A letter falls outside the declared alphabet, or alphabets disagree."""


class DirectiveError(ValueError):
    """A directive sequence fails the every-letter-appears validation."""


class FieldMismatchError(ValueError):
    """A rotation slope and intercept over different square roots."""


class ParameterError(ValueError):
    """Generator parameters out of range (a >= m, c >= m, bad seed...)."""


class SpecParseError(ValueError):
    """A word or generator descriptor string does not parse.

    Carries the offending position when known, for diagnostics.
    """

    def __init__(self, message: str, text: str = "", pos: int | None = None):
        self.message = message
        self.text = text
        self.pos = pos
        if pos is not None:
            message = f"{message} (at char {pos} of {text!r})"
        super().__init__(message)


class InsufficientDataError(ValueError):
    """A statistical test was asked to run on too small a sample."""
