"""Exception and warning types shared across the package."""


class MedruleError(Exception):
    """Base class for all package errors."""


class MissingColumn(MedruleError):
    def __init__(self, column):
        super().__init__(f"required column {column!r} is absent from the table")
        self.column = column


class MissingValue(MedruleError):
    def __init__(self, row, column, token=None):
        detail = f" (token {token!r})" if token is not None else ""
        super().__init__(f"missing or unusable value at row {row}, column {column!r}{detail}")
        self.row = row
        self.column = column


class NonBinaryTreatment(MedruleError):
    def __init__(self, row, column, value):
        super().__init__(f"column {column!r} must be 0/1 but row {row} holds {value!r}")
        self.row = row
        self.column = column


class OutOfRangeOutcome(MedruleError):
    def __init__(self, row, value, lo, hi):
        super().__init__(f"outcome {value!r} at row {row} lies outside [{lo}, {hi}]")
        self.row = row


class NegativeWeight(MedruleError):
    def __init__(self, row, value):
        super().__init__(f"negative weight {value!r} at row {row}")
        self.row = row


class AllZeroWeights(MedruleError):
    def __init__(self):
        super().__init__("weights sum to zero; at least one positive weight is required")


class PositivityViolation(MedruleError):
    def __init__(self, cell):
        super().__init__(f"zero probability in a required cell: {cell}")
        self.cell = cell


class UnknownStratum(MedruleError):
    def __init__(self, value):
        super().__init__(f"stratum {value!r} is not in the rule-covariate support")
        self.value = value


class TooFewRows(MedruleError):
    pass


class DegenerateFold(MedruleError):
    def __init__(self, fold, column):
        super().__init__(
            f"training fold {fold} holds a single level of {column!r}; "
            "refusing to fit ratio nuisances on it"
        )
        self.fold = fold
        self.column = column


class NonFiniteFeature(MedruleError):
    pass


class UnsaturableDesign(MedruleError, ValueError):
    """glm_sat met a feature with too many distinct values, or too many cells."""


class NonFinitePseudoOutcome(MedruleError):
    def __init__(self, term, row):
        super().__init__(f"pseudo-outcome term {term!r} is not finite at row {row}")
        self.term = term
        self.row = row


class MissingArm(MedruleError):
    def __init__(self, pair):
        super().__init__(f"nuisance fits do not cover the contrast arm {pair}")
        self.pair = pair


class SchemaMismatch(MedruleError):
    pass


class EmptyTable(MedruleError):
    pass


class ConfigError(MedruleError):
    pass


class EstimationWarning(UserWarning):
    """Base class for diagnostic warnings; never changes exit status."""


class SingularDesignWarning(EstimationWarning):
    pass


class ClippingSaturationWarning(EstimationWarning):
    pass


class PositivityDiagnosticWarning(EstimationWarning):
    pass


class DroppedMemberWarning(EstimationWarning):
    pass


class ConvergenceWarning(EstimationWarning):
    """An iterative solver stopped at its iteration cap; its last iterate is used."""


class SeparationWarning(ConvergenceWarning):
    """IRLS met separated data, where |eta| diverges; it returned the fit
    clipped at the bound instead of running to its iteration cap."""
