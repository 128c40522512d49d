"""Shared exception types.

Everything raised on purpose by this package derives from TravelSatError so
callers can catch one base class at the CLI boundary.
"""


class TravelSatError(Exception):
    """Base class of the errors below; each carries its message."""


class SchemaError(TravelSatError):
    """Schema definition or schema/data mismatch problems."""


class RowError(TravelSatError):
    """A survey row or record that is present but invalid (bad code, number or id)."""


class DatasetError(TravelSatError):
    """Dataset-level problems: empty data, bad split fractions, etc."""


class EncodingError(TravelSatError):
    """Feature encoding problems (unknown category, layout mismatch)."""


class PromptError(TravelSatError):
    """Prompt construction problems."""


class ContaminationError(PromptError):
    """Support and query sets share record ids."""


class ParseError(TravelSatError):
    """LLM response did not satisfy the output contract.

    Carries the raw response text for the failure archive.
    """

    def __init__(self, message: str, raw_text: str = ""):
        super().__init__(message)
        self.raw_text = raw_text


class TransportError(TravelSatError):
    """Transport failure after retries were exhausted."""


class TransientTransportError(TransportError):
    """Retryable transport failure (rate limit, 5xx, timeout)."""


class CredentialError(TravelSatError):
    """Missing or rejected API credentials. Never retried."""


class MockError(TravelSatError):
    """The scripted mock backend received a prompt it cannot interpret."""


class RankError(TravelSatError):
    """Rank-deficient design matrix. Names the offending columns."""
