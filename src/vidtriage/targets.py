"""The classifier targets and fit error, apart from :mod:`vidtriage.classify`
so that the command line names them without loading numpy."""


class ConvergenceError(RuntimeError):
    """Raised when the optimizer cannot reach the gradient tolerance."""


# Each target and the annotation label its classifier predicts.
TARGET_FIELDS = {
    "medical_info": "medical_info_high",
    "understandability": "understandable",
    "recommendation": "recommended",
}
TARGETS = tuple(TARGET_FIELDS)
