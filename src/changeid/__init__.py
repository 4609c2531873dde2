"""Sequential change detection and identification across independent
data streams, with mixture statistics over composite post-change
hypotheses and Monte Carlo verification of the risk bounds."""

from .prior import ChangePointPrior, PriorError
from .models import (whiten, ConstantSignal, SineSignal, ARGaussianSignal,
                     TrialPath, simulate, ModelError)
from .engine import (MixingMeasure, StatisticFrame, Detector, EngineError,
                     posterior_no_change)
from .rule import (ThresholdMatrix, Verdict, CalibrationError,
                   calibrate, calibrate_star, check_stop, run)
from .theory import pfa_bound, pmi_bound, psi_threshold
from .montecarlo import (ExperimentPlan, TrialOutcome, RiskReport,
                         MonteCarloError, run_null_batch, run_change_batch,
                         estimate_pfa, estimate_pmi, estimate_delay,
                         validate_conditions, clopper_pearson_upper)
from .config import (RunConfig, ConfigError, load_config, build_prior,
                     build_models, build_mixing, build_thresholds)

__version__ = "0.1.0"
