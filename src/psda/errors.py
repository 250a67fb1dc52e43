"""Exception and warning types shared across the package."""

import contextlib


class PsdaError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PsdaError):
    """A text input failed to parse; carries the file path and line number."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:" if line is None else f"{path}:{line}:"
        super().__init__(f"{where} {message}".strip())


@contextlib.contextmanager
def utf8_errors(path):
    """Turn a ``UnicodeDecodeError`` raised in the body into a ParseError
    naming ``path`` and the line of its first byte that is not UTF-8."""
    try:
        yield
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            message = f"not UTF-8: byte {data[exc.start]:#04x}, {exc.reason}"
            raise ParseError(message, path, line) from None
        raise


class DuplicateLanguageError(ParseError):
    """A language code is registered in more than one family."""


class EmptyFamilyError(ParseError):
    """A family entry declares no member languages."""


class UnknownLanguageError(PsdaError):
    """Lookup of a language code that is not registered in the taxonomy."""


class DimensionMismatchError(PsdaError):
    """Vector or matrix dimensions do not agree."""


class NonFiniteInputError(PsdaError):
    """An input contains NaN or infinite components."""


class DuplicateWordError(ParseError):
    """The same word appears twice in one embedding file."""


class OovWordError(PsdaError):
    """A token has no vector in the vocabulary store (policy ``error``)."""


class MissingChainError(PsdaError):
    """A vocabulary word has no cluster chain in the model."""


class TooFewPointsError(PsdaError):
    """Fewer points than mixture components."""


class WeightSumError(PsdaError):
    """Composition weights do not sum to 1 within tolerance."""


class ZeroVectorError(PsdaError):
    """A pooled sentence vector has (near-)zero norm."""


class ConfigError(PsdaError):
    """Invalid or incomplete pipeline configuration."""


class ModelFormatError(PsdaError):
    """A serialized cluster model file is malformed."""


class DegenerateSpectrumWarning(UserWarning):
    """The smallest singular value left out of the penalized tail is above
    1e-8 and lies within 1e-8 of the largest one in it, so which
    directions are penalized, and hence the gradient, is not unique; loss
    values are still well defined.  Ties inside the tail, a tail that
    holds every value, and zero singular values such as those of a
    rank-deficient cloud never trigger it."""
