"""Exception types shared across the library."""


class RhythmkitError(Exception):
    """Base class for all library-specific failures."""


class UnsupportedFormatError(RhythmkitError):
    """Audio container or encoding we refuse to decode."""


class EmptyAudioError(RhythmkitError):
    """An operation received a buffer with no samples."""


class ParseError(RhythmkitError):
    """Malformed score, manifest, feature-file or run-config document; message carries context."""


class TooShortError(RhythmkitError):
    """Signal shorter than one analysis window."""


class UnstableFrameError(RhythmkitError):
    """Levinson recursion produced a reflection coefficient with |k| >= 1."""


class TooManyMelsError(RhythmkitError):
    """Adjacent mel filter centers collapse onto the same DFT bin."""


class ShapeMismatchError(RhythmkitError):
    """Matrix/frame dimensions disagree."""


class InsufficientClassesError(RhythmkitError):
    """EER needs at least one bonafide and one spoof trial."""


class UnknownAttackError(RhythmkitError):
    """Attack label missing from the TTS/VC mapping."""
