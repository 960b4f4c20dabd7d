"""Set-up probe: what one CLI command builds before its first unit of work.

    python3 bench/setup_probe.py predict|simulate|check CONFIG

Imports ``grf_tomo``, loads the configuration and builds the objects the
command needs before it computes anything: the ``CovariancePredictor``
(cold, since its autocorrelation cache lives as long as the process) for
``predict`` and ``simulate``, and the ``ReconstructionPlan`` for
``simulate``.  The caller times the whole process.
"""

import sys


def main(command, config_path):
    import grf_tomo as gt
    import grf_tomo.cli  # noqa: F401  (the CLI's own imports)

    cfg = gt.load_config(config_path)
    if command in ("predict", "simulate"):
        gt.CovariancePredictor(cfg.geometry, gt.Kernel(cfg.kernel), cfg.center,
                               panels=cfg.panels, tolerance=cfg.tolerance)
    if command == "simulate":
        gt.ReconstructionPlan(cfg.geometry, cfg.kernel, cfg.noise,
                              cfg.center + cfg.eps * cfg.offsets)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
