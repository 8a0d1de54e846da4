"""Exception hierarchy shared across the toolkit."""


class DecoError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(DecoError, ValueError):
    """An experiment config or run setting that cannot be used."""


class InvalidInput(DecoError, ValueError):
    """A point or a count of the wrong shape, type or value."""


# --- demonstration / decomposition ---

class EmptyDemo(DecoError):
    pass


class MalformedData(DecoError):
    """A data file (demos, atomic tasks, a skill library) that does not parse."""


class MalformedDemo(MalformedData):
    pass


class NoInteraction(DecoError):
    pass


class AnnotationMismatch(DecoError):
    pass


# --- planning ---

class UnknownTask(DecoError):
    pass


class UnsatisfiablePlan(DecoError):
    pass


class TransportError(DecoError):
    pass


class ParseError(DecoError):
    pass


class HallucinatedStep(DecoError):
    def __init__(self, step):
        super().__init__(f"planned step not in instruction library: {step!r}")
        self.step = step


# --- cost map / chaining ---

class DegenerateBounds(DecoError, ValueError):
    pass


class InvalidMapParameter(DecoError, ValueError):
    """A cost-map parameter outside its range, or not finite."""


class NoFreeChain(DecoError):
    pass


class PlanningFailure(DecoError):
    pass


# --- simulator / policies ---

class UnknownInstruction(DecoError):
    pass


class PreconditionUnmet(DecoError):
    pass


class OutOfBounds(DecoError):
    pass
