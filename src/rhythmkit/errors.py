"""Exception types shared across the library."""


class RhythmkitError(Exception):
    """Base class for all library-specific failures."""


class UnsupportedFormatError(RhythmkitError):
    """Audio container or encoding we refuse to decode."""


class EmptyAudioError(RhythmkitError):
    """An operation received a buffer with no samples."""


class ParseError(RhythmkitError):
    """Malformed text or binary input; message carries file/line context."""


class DuplicateIdError(ParseError):
    """The same utterance id appeared twice in one manifest or score file."""


class BadMagicError(ParseError):
    """Feature file does not start with the expected magic bytes."""


class VersionMismatchError(ParseError):
    """Feature file has a version this reader does not understand."""


class TooShortError(RhythmkitError):
    """Signal shorter than one analysis window."""


class LagTooLargeError(RhythmkitError):
    """Requested autocorrelation lag exceeds the frame length."""


class UnstableFrameError(RhythmkitError):
    """Levinson recursion produced a reflection coefficient with |k| >= 1."""


class TooManyMelsError(RhythmkitError):
    """Adjacent mel filter centers collapse onto the same DFT bin."""


class PlanMismatchError(RhythmkitError):
    """A segment plan does not tile the feature timeline it is applied to."""


class ShapeMismatchError(RhythmkitError):
    """Matrix/frame dimensions disagree."""


class InsufficientClassesError(RhythmkitError):
    """EER needs at least one bonafide and one spoof trial."""


class UnknownAttackError(RhythmkitError):
    """Attack label missing from the TTS/VC mapping."""
