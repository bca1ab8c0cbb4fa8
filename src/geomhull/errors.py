"""Shared exception types.  The CLI maps these onto process exit codes."""


class InputError(ValueError):
    """Invalid arguments, malformed files, or violated preconditions."""


class DegeneracyError(InputError):
    """Rank-deficient input where a spanning configuration is required."""


class NumericalError(RuntimeError):
    """An iteration cap or stability guard tripped inside a solver."""


class PhaseError(RuntimeError):
    """A multi-stage pipeline failed; carries the failing phase and diagnostics."""

    def __init__(self, phase, message, **diagnostics):
        super().__init__(f"{phase}: {message}")
        self.phase = phase
        self.diagnostics = diagnostics


class ContractionError(NumericalError):
    """A per-step contraction guarantee was violated at a named step."""

    def __init__(self, step, message):
        super().__init__(f"step {step}: {message}")
        self.step = step
