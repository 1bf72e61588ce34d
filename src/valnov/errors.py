"""Exception types shared across the pipeline.

Each class names the one machine-parseable category that the CLI prints
as ``error: <category>: <message>``.
"""


class ValnovError(Exception):
    """An error the CLI reports under ``category``."""
    category = ""


class SchemaError(ValnovError):
    """Input file does not match the expected schema (e.g. missing column)."""
    category = "schema"


class DataError(ValnovError, ValueError):
    """A data value violates its contract (bad label, empty text, ...)."""
    category = "data"


class ConfigurationError(ValnovError):
    """A configuration value or combination is invalid."""
    category = "configuration"


class CoverageError(ValnovError):
    """Predictions do not cover the required instance-id universe."""
    category = "coverage"


class ParseError(ValnovError, ValueError):
    """A serialized artifact could not be parsed; message carries location."""
    category = "parse"


class ProviderError(ValnovError):
    """A completion provider call failed (network, auth, bad response)."""
    category = "provider"


class CacheMissError(ValnovError):
    """Replay-only completion requested a key absent from the cache."""
    category = "cache-miss"

    def __init__(self, key: str):
        super().__init__(f"no cached response for key {key}")
        self.key = key


class UsageError(ValnovError):
    """The command line asks for something the command cannot do."""
    category = "usage"


class TrainingError(ValnovError):
    """Training aborted (e.g. non-finite loss); message names the step."""
    category = "training"
