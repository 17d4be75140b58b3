"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class NumericError(ArithmeticError):
    """A computation produced or encountered a non-finite value."""


class CsvFormatError(ValueError):
    """Malformed CSV input. Carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class ModelFormatError(ValueError):
    """Model file is not in the expected binary format."""


class ModelVersionError(ModelFormatError):
    """Model file declares a format version this build cannot read."""


class ModelTruncatedError(ModelFormatError):
    """Model file is shorter than its header declares."""


class ModelChecksumError(ModelFormatError):
    """Model file checksum does not match its contents."""
