"""ridecomfort: seated-occupant vibration response and motion-sickness toolkit.

Core pieces:

- timeseries / spectral: uniformly sampled multichannel records, Welch
  spectra and H1 transfer-function estimation.
- body: lumped-parameter seated-body model with delayed postural feedback,
  RK4 simulation and LTI linearization.
- excitation / stht: reproducible seat-acceleration test signals and
  seat-to-head transmissibility runs.
- perception: vestibular dynamics, subjective vertical and sensory conflict.
- sickness: conflict-driven accumulation to a motion-sickness index.
- comfort: frequency-weighted ride metrics.
- pipeline / cli: end-to-end scenario runs with on-disk artifacts.
"""

from ridecomfort.errors import (
    RideComfortError,
    MissingChannel,
    NonUniformSampling,
    NonFiniteSample,
    EmptyFile,
    InvalidRate,
    SegmentTooLong,
    TooFewSegments,
    UnstableConfiguration,
    SingularMassMatrix,
    NoEquilibrium,
    NonFiniteState,
    InvalidBand,
    GridMismatch,
    UnsupportedRate,
    UnitMismatch,
    RateMismatch,
    ConfigError,
    StageError,
    IoError,
)
from ridecomfort.timeseries import TimeSeries, load_timeseries, save_timeseries
from ridecomfort.spectral import (
    WelchParams,
    Spectrum,
    FrequencyResponseFunction,
    welch_spectrum,
    estimate_frf,
    detect_peaks,
)
from ridecomfort.body import (
    BodyParams,
    PostureConfig,
    ModelRealization,
    build_model,
    static_equilibrium,
    BodyState,
    step,
    simulate,
    mechanical_energy,
    LinearizedModel,
    linearize,
)
from ridecomfort.excitation import ExcitationSpec, generate_excitation
from ridecomfort.stht import (
    STHTResult,
    run_stht,
    save_stht_result,
    compare_frf,
    compare_to_reference,
    load_reference_frf,
)
from ridecomfort.perception import (
    VisionParams,
    VestibularParams,
    scc_response,
    otolith_response,
    subjective_vertical,
    internal_expectation,
    conflict,
    perceive,
)
from ridecomfort.sickness import (
    AccumulatorParams,
    SicknessSummary,
    accumulate,
    summarize,
)
from ridecomfort.comfort import (
    DigitalWeighting,
    ComfortReport,
    design_weighting,
    analog_magnitude,
    weighted_rms,
    motion_sickness_dose,
    comfort_report,
)
from ridecomfort.pipeline import (
    ScenarioConfig,
    RunReport,
    validate_config,
    parse_config,
    run_pipeline,
)

__version__ = "0.1.0"
