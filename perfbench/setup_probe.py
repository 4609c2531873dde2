"""Time one cold set-up of a workload in this fresh process.

Usage: python3 setup_probe.py SRC_DIR CONFIG_YAML

Covers what a user pays before the first observation: ``import changeid``,
config load, building the prior, models and mixing measure, threshold
calibration, the theory bound tables, and constructing the detector (which
builds the prior's log-pmf table).  Then times the reference loop for
REF_SECONDS and prints one JSON object: the raw times and the factor that
scales them to the reference speed.
"""
import json
import os
import sys
import time

REF_SECONDS = 0.5


def main(src_dir: str, config_path: str) -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, src_dir)
    import changeid
    from changeid import config, theory
    t_import = time.perf_counter()
    cfg = config.load_config(config_path)
    prior = config.build_prior(cfg.prior)
    models = config.build_models(cfg.models)
    mixing = config.build_mixing(cfg.mixing)
    thresholds = config.build_thresholds(cfg)
    theory.pfa_bound(thresholds)
    theory.pmi_bound(thresholds)
    changeid.Detector(prior, models, mixing, window=cfg.window,
                      capacity=cfg.horizon)
    t_end = time.perf_counter()
    # the machine's speed just after the set-up (see reference.py)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from reference import SpeedMeter, loop
    for _ in range(10):
        loop()
    meter = SpeedMeter()
    meter.sample(REF_SECONDS)
    print(json.dumps({"setup_s": t_end - t0, "import_s": t_import - t0,
                      "scale": meter.scale()}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
