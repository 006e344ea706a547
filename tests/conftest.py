"""Shared test configuration.

The acceptance tests double as the release checklist, so the terminal
summary prints one PASS/FAIL line per acceptance check in a stable order.
"""

_ACCEPTANCE_ORDER = (
    "test_noise_scenario_replication",
    "test_ratio_scenario_replication",
    "test_dove_advantage_across_parameter_grid",
    "test_no_certified_hawk_advantage",
    "test_sabotage_unaffected_by_prize",
    "test_payoff_menu_ordering",
    "test_no_profitable_deviation_at_accepted_equilibria",
    "test_simulation_matches_analytic_probabilities",
    "test_alternative_seedings_favor_doves",
    "test_curvature_shortcut_consistency",
)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            if getattr(report, "when", "call") != "call":
                continue
            if "test_acceptance" not in report.nodeid:
                continue
            name = report.nodeid.split("::")[-1]
            outcomes[name] = status
    if not outcomes:
        return
    terminalreporter.write_sep("=", "acceptance summary")
    ordered = [n for n in _ACCEPTANCE_ORDER if n in outcomes]
    ordered += [n for n in sorted(outcomes) if n not in _ACCEPTANCE_ORDER]
    for name in ordered:
        verdict = "PASS" if outcomes[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"[acceptance] {name}: {verdict}")
