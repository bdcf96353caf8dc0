"""voidtherm: simulation and verification laboratory for spatial energy
decay in porous thermoelastic media with anti-dissipative thermal coupling."""

from .material import (
    DecayParameters,
    InfeasibleWindow,
    Material,
    MaterialFileError,
    NoFeasibleLambda,
    NotPositiveDefinite,
    Spectrum,
    ValidationReport,
    assemble_quadratic_form,
    epsilon_of_lambda,
    epsilon_residual,
    feasibility_window,
    random_material,
    read_material_file,
    spectrum,
    validate,
    write_material_file,
    zeta_of_lambda,
)
from .constitutive import (
    NonPositiveEpsilon,
    PointState,
    ResponseState,
    bilinear_form,
    check_flux_bound,
    check_stress_bound,
    check_surface_power_bound,
    random_point_state,
    response,
    stored_energy,
)
from .solver import (
    BoundaryCondition,
    BoundaryPartition,
    BudgetExceeded,
    CflViolation,
    CosineBump,
    FieldData,
    Grid,
    NonFiniteField,
    RaisedCosinePulse,
    Scenario,
    ScenarioFileError,
    SimState,
    Trajectory,
    TrajectoryCsvWriter,
    WindowedGaussianPulse,
    ZeroSignal,
    kinematics,
    pde_residual,
    read_scenario_file,
    replay,
    reverse_time,
    run,
    stability_budget,
    validate_scenario,
    write_trajectory_csv,
)
from .measures import (
    DecayReport,
    DiffInequalityReport,
    EnergyIdentityReport,
    MeasureSeries,
    SampleRecord,
    SupportGeometry,
    admissible_lambdas,
    check_decay,
    check_diff_inequality,
    certify,
    check_energy_identity,
    compute_measure,
    record_trajectory,
    support_geometry,
    surface_power,
    weighted_energy_density,
    write_measure_csv,
)

__version__ = "0.1.0"


def __getattr__(name):
    # the manufactured solutions need sympy; import it on first use only
    if name == "manufactured_scenario":
        from . import mms
        return getattr(mms, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
