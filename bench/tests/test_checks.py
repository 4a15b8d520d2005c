import copy

import checks

CONFIG = {
    "mode": "simulate",
    "model": {"kind": "continuous", "known_sd": 1.0},
    "design": {"variant": "design1", "n_total": 200, "allocation_ratio": 1.0,
               "stage1_ratio": 1.0, "t": [0.3], "gamma": 0.3, "lambda": 1.0,
               "eta": 0.975},
    "priors": {"historical_control": {"family": "normal", "components": [
        {"weight": 1.0, "mean": 0.0, "sd": 0.12}]}},
    "truth": {"drift_grid": [0.0], "effect": 0.4, "hypotheses": ["alternative"]},
    "replications": 1000,
}

RECORD = {
    "d": 0.0, "t": 0.3, "gamma": 0.3, "lambda": 1.0, "hypothesis": "alternative",
    "replications": 1000, "rejection_rate": 0.9, "rejection_rate_se": 0.01,
    "mean_saved": 40.0, "mean_saved_se": 0.2,
    # the closed form gives 0.8009 for theta 0 vs 0.4 on 100 + 100 patients
    "comparator_rejection_rate": 0.80, "comparator_rejection_rate_se": 0.013,
    "rejection_rate_diff": 0.1, "rejection_rate_diff_se": 0.01,
}


def _summary(**changes):
    rec = dict(RECORD, **changes)
    return {"mode": "simulate", "config": copy.deepcopy(CONFIG), "scenarios": [rec]}


def test_consistent_scenario_passes():
    assert checks.check_simulate(_summary()) == [[]]


def test_each_miss_is_reported():
    assert checks.check_simulate(_summary(mean_saved=71.0))[0]      # planned is 70
    assert checks.check_simulate(_summary(rejection_rate=1.2))[0]
    assert checks.check_simulate(_summary(mean_saved_se=float("nan")))[0]
    assert checks.check_simulate(_summary(comparator_rejection_rate=0.70))[0]


def test_minimal_hellinger_check_uses_each_interim_scale_once():
    seen = []

    def program(sd):
        seen.append(sd)
        return 0.9

    summary = _summary()
    summary["config"]["priors"]["historical_control"]["components"] = [
        {"weight": 0.8, "mean": -0.6, "sd": 0.08}, {"weight": 0.2, "mean": 0.6, "sd": 0.08}]
    summary["scenarios"].append(dict(RECORD))
    problems = checks.check_simulate(summary, program)
    assert len(seen) == 1
    assert all(any(p.startswith("minimal_hellinger") for p in ps) for ps in problems)


def test_calibration_rows_against_closed_forms():
    cfg = {
        "mode": "calibrate",
        "model": {"kind": "continuous", "known_sd": 88.0},
        "design": {"n_total": 80, "allocation_ratio": 1.0, "stage1_ratio": 1.0,
                   "lambda": 1.0},
        "priors": {"historical_control": {"family": "normal", "components": [
            {"weight": 1.0, "mean": -50.0, "sd": 18.0}]}},
        "calibration": {"replications": 5000},
        "replications": 5000,
    }
    # exact: P(borrow | +40, t 0.6, gamma 0.4) = 0.1483
    good = ("quantity,delta_star,t,gamma,value\n"
            "borrowing_prob,40,0.6,0.4,0.146\n"
            "borrowing_prob_at_mad,40,0.6,0.4,0.150\n")
    assert checks.check_calibrate({"config": cfg}, good) == [[], []]
    bad = good.replace("0.146", "0.180") + "mean_saved,0,0.6,0.4,17\n"
    problems = checks.check_calibrate({"config": cfg}, bad)
    assert problems[0] and not problems[1] and problems[2]            # planned is 16
