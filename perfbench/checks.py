"""Verdict checks on one study's CSV; any problem fails the study.

These are the outcomes the shipped configs are meant to show: resolvent
studies converge except the sign_resolvent negative control, sin_norm
stays within its chain budget, the homogenized limit is consistent, and
the difference identity holds to the lab's own solve tolerance.  Byte
determinism across repeated runs is checked by the caller.
"""

import re

from homlab.resolvent import SOLVE_RTOL

NEGATIVE_CONTROLS = {"sign_resolvent"}

_NOTE = re.compile(r"#\s*([A-Za-z_0-9]+)\s*(?:=|:)\s*(.*)")


def notes(comments):
    """'# key = value' and '# key: value' comment lines as a dict."""
    out = {}
    for line in comments:
        match = _NOTE.fullmatch(line.strip())
        if match:
            out[match.group(1)] = match.group(2).strip()
    return out


def check_study(name, fields, rows, comments):
    """Problems found in one study's output; empty when it passes."""
    problems = []
    info = notes(comments)
    if not rows:
        problems.append("no data rows")
    if name.endswith("_resolvent"):
        want = ("not_convergent" if name in NEGATIVE_CONTROLS
                else "convergent")
        verdict = info.get("verdict", "missing")
        if verdict != want:
            problems.append(f"verdict {verdict}, expected {want}")
    if "identity_err" in fields:
        worst = max(row["identity_err"] for row in rows)
        if not worst <= SOLVE_RTOL:
            problems.append(f"identity_err {worst:.3g} above {SOLVE_RTOL:g}")
    if name == "sin_norm":
        bad = [row["eps"] for row in rows if row["within_budget"] != 1]
        if bad:
            problems.append(f"within_budget 0 at eps {bad}")
    if "order" in fields:
        bad = [row["order"] for row in rows
               if not row["error"] <= row["bound"]]
        if bad:
            problems.append(f"error above bound at orders {bad}")
        if info.get("divergent") != "false":
            problems.append("series reported divergent")
    if "declared_gap" in fields:
        consistent = info.get("declared_limit_consistent", "")
        if not consistent.startswith("true"):
            problems.append("declared limit not consistent")
    return problems
