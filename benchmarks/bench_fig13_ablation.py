"""Fig. 13(e-f): ablation studies — AD+WR on the planner, AD+VS on the controller."""

from common import JARVIS_PLAIN, JARVIS_ROTATED, jarvis_plain, engine_kwargs, num_trials, run_once

from repro.core import ProtectionConfig, REFERENCE_POLICIES, VoltageScalingConfig
from repro.eval import banner, ber_sweep, format_sweep, format_table, summarize_trials


def test_fig13e_planner_ablation_ad_wr(benchmark):
    bers = [1e-3, 3e-3, 1e-2, 3e-2]
    trials = num_trials()

    def run():
        return {
            "unprotected": ber_sweep(JARVIS_PLAIN, "wooden", bers, target="planner",
                                     num_trials=trials, seed=0, label="unprotected",
                                     **engine_kwargs()),
            "AD": ber_sweep(JARVIS_PLAIN, "wooden", bers, target="planner",
                            num_trials=trials, seed=0, anomaly_detection=True, label="AD",
                            **engine_kwargs()),
            "WR": ber_sweep(JARVIS_ROTATED, "wooden", bers, target="planner",
                            num_trials=trials, seed=0, label="WR", **engine_kwargs()),
            "AD+WR": ber_sweep(JARVIS_ROTATED, "wooden", bers, target="planner",
                               num_trials=trials, seed=0, anomaly_detection=True,
                               label="AD+WR", **engine_kwargs()),
        }

    sweeps = run_once(benchmark, run)
    print()
    print(banner("Fig. 13(e): planner ablation — AD and WR are synergistic"))
    print(format_sweep(sweeps, "success_rate", title="success rate vs. planner BER (wooden)"))
    assert sweeps["AD+WR"].success_rates()[-1] >= sweeps["unprotected"].success_rates()[-1]


def test_fig13f_controller_ablation_ad_vs(benchmark):
    system = jarvis_plain()
    executor = system.executor()
    policy = REFERENCE_POLICIES["C"]
    wooden = [("wooden", seed) for seed in range(num_trials(10))]

    def run():
        rows = []
        for label, anomaly in (("VS only", False), ("AD+VS", True)):
            protection = ProtectionConfig(
                anomaly_detection=anomaly,
                voltage_scaling=VoltageScalingConfig(policy=policy, entropy_source="predictor"))
            summary = summarize_trials(executor.run_trial_group(
                wooden, controller_protection=protection))
            rows.append([label, summary.success_rate, summary.effective_voltage])
        for voltage in (0.80, 0.76):
            for label, anomaly in ((f"constant {voltage} V", False),
                                   (f"constant {voltage} V + AD", True)):
                protection = ProtectionConfig(voltage=voltage, anomaly_detection=anomaly)
                summary = summarize_trials(executor.run_trial_group(
                    wooden, controller_protection=protection))
                rows.append([label, summary.success_rate, summary.effective_voltage])
        return rows

    rows = run_once(benchmark, run)
    print()
    print(banner("Fig. 13(f): controller ablation — AD lets VS run at lower effective voltage"))
    print(format_table(["configuration", "success rate", "effective voltage (V)"], rows))
