"""Fig. 1(b-d): lowering the voltage raises the BER, hurts task quality and energy."""

from common import jarvis_plain, num_trials, run_once

from repro.core import ProtectionConfig
from repro.eval import format_table, banner, summarize_trials
from repro.eval.experiments import motivation_curves


def test_fig01b_voltage_vs_ber(benchmark):
    curves = run_once(benchmark, motivation_curves)
    print()
    print(banner("Fig. 1(b): operating voltage vs. aggregate bit error rate"))
    print(format_table(["voltage (V)", "mean BER", "dynamic energy scale"],
                       zip(curves["voltages"], curves["mean_ber"],
                           curves["dynamic_energy_scale"])))


def test_fig01cd_voltage_vs_task_quality_and_energy(benchmark):
    system = jarvis_plain()
    executor = system.executor()
    voltages = [0.9, 0.80, 0.775, 0.75, 0.725]
    trials = num_trials(10)

    def run():
        rows = []
        for voltage in voltages:
            protection = ProtectionConfig(voltage=voltage) if voltage < 0.9 else ProtectionConfig()
            results = executor.run_trial_group(
                [("wooden", seed, protection, protection) for seed in range(trials)])
            summary = summarize_trials(results)
            rows.append([voltage, summary.success_rate, summary.average_steps,
                         summary.mean_energy_j * 1e3])
        return rows

    rows = run_once(benchmark, run)
    print()
    print(banner("Fig. 1(c-d): unprotected voltage scaling degrades task quality "
                 "and raises per-task energy"))
    print(format_table(["voltage (V)", "success rate", "avg steps", "energy (mJ)"], rows))
