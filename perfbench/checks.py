"""Output checks for one CLI operation, from the identities the acceptance tests pin.

Each check compares the written CSV (and, for ``sample``, the printed
report) with physics at the tolerances of ``tests/test_acceptance.py``,
never with the bytes of an earlier run: valid changes move the last digits.
The squeezed 10% corridor around e^-r/|alpha| is left out on purpose; it is
a known property of the physics and would mark every squeezed sweep failed.

``check`` returns None when the output is right and a reason otherwise.
"""

from __future__ import annotations

import csv
import math

SWEEP_COLUMNS = "phi,mean_o,second_o,var_o,d_mean_dphi,delta_phi,qfi,crb,closed_form_delta_phi,convention".split(",")
MC_SIGMAS = 5.0  # Monte Carlo estimates must land within this many standard errors


def _flags(argv: list[str]) -> dict[str, str]:
    out = {}
    for i, tok in enumerate(argv):
        if tok.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else ""
            out[tok[2:]] = "" if nxt.startswith("--") else nxt
    return out


def _num(text: str) -> float | None:
    return None if text == "" else float(text)


def _read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check(argv: list[str], rc: int, stdout: str, out_path: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    flags = _flags(argv)
    try:
        if argv[0] == "sweep":
            return _check_sweep(flags, out_path)
        if argv[0] == "sample":
            return _check_sample(flags, stdout, out_path)
        if argv[0] == "qfi-table":
            return _check_qfi_table(flags, out_path)
        if argv[0] == "metric-check":
            return _check_metric(out_path)
    except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
        return f"unreadable output: {exc!r}"
    return f"no check for command {argv[0]!r}"


def _check_sweep(flags: dict[str, str], path: str) -> str | None:
    header, raw = _read_rows(path)
    if header != SWEEP_COLUMNS:
        return f"sweep header {header}"
    if len(raw) != 181:
        return f"{len(raw)} sweep rows, expected 181"
    rows = [{k: (_num(v) if k != "convention" else v) for k, v in zip(header, r)} for r in raw]
    scenario = flags["scenario"]
    for r in rows:
        dp, crb = r["delta_phi"], r["crb"]
        if math.isfinite(dp) and dp < crb * (1 - 1e-9):
            return f"delta_phi {dp} below the Cramer-Rao bound {crb} at phi={r['phi']}"
    if scenario == "fock":
        n = int(flags["n"])
        for r in rows:
            if abs(r["mean_o"] - n * math.cos(r["phi"]) / 2) > 1e-10:
                return f"fock mean off at phi={r['phi']}"
            if abs(r["var_o"] - n * math.sin(r["phi"]) ** 2 / 4) > 1e-10:
                return f"fock variance off at phi={r['phi']}"
    elif scenario == "twin_fock":
        if max(abs(r["mean_o"]) for r in rows) > 1e-12:
            return "twin_fock mean is not zero"
    elif scenario == "noon":
        n = int(flags["n"])
        for r in rows:
            if abs(r["mean_o"] - math.cos(n * r["phi"])) > 1e-12:
                return f"noon parity off cos(N phi) at phi={r['phi']}"
    elif scenario == "squeezed":
        a, s = float(flags["alpha"]), math.sinh(float(flags["r"]))
        for r in rows:
            if abs(r["mean_o"] - math.cos(r["phi"]) * (a * a - s * s)) > 1e-8:
                return f"squeezed signal off at phi={r['phi']}"
    elif scenario == "coherent":
        # a sampled cosine makes the central difference low by exactly sinc(h)
        h = rows[1]["phi"] - rows[0]["phi"]
        slack = (h / math.sin(h) - 1) * 1.000001 + 1e-9
        for r in rows:
            dp, closed = r["delta_phi"], r["closed_form_delta_phi"]
            if not math.isfinite(dp) or closed is None or not math.isfinite(closed):
                continue
            if abs(dp - closed) > 1e-6 + closed * slack:
                return f"coherent delta_phi {dp} vs closed form {closed} at phi={r['phi']}"
    return None


def _line_values(stdout: str, first_key: str) -> dict[str, float]:
    """``key = value`` pairs of the report line that starts with ``first_key``."""
    line = next(ln for ln in stdout.splitlines() if ln.split(" ", 1)[0] == first_key)
    toks = line.split()
    return {toks[i - 1]: float(toks[i + 1]) for i in range(1, len(toks) - 1) if toks[i] == "="}


def _check_sample(flags: dict[str, str], stdout: str, path: str) -> str | None:
    n, eta, trials = int(flags["n"]), float(flags["eta"]), int(flags["trials"])
    header, raw = _read_rows(path)
    if header != ["l1", "l2", "count"]:
        return f"histogram header {header}"
    if sum(int(r[2]) for r in raw) != trials:
        return "histogram counts do not add up to the trials"
    ideal = math.cos(n * _line_values(stdout, "phi")["phi"])
    if abs(_line_values(stdout, "exact_parity_lossless")["exact_parity_lossless"] - ideal) > 1e-12:
        return "exact lossless parity is not cos(N phi)"
    lossy = _line_values(stdout, "exact_parity_lossy")["exact_parity_lossy"]
    unf = _line_values(stdout, "unfiltered_estimate")
    if abs(unf["unfiltered_estimate"] - lossy) > MC_SIGMAS * unf["stderr"]:
        return "unfiltered parity outside its error bar around the exact lossy parity"
    fil = _line_values(stdout, "filtered_estimate")
    if abs(fil["filtered_estimate"] - ideal) > MC_SIGMAS * fil["stderr"]:
        return f"post-selected parity {fil['filtered_estimate']} not within {MC_SIGMAS} stderr of cos(N phi) = {ideal}"
    keep = eta**n
    if abs(fil["kept_fraction"] - keep) > MC_SIGMAS * math.sqrt(keep * (1 - keep) / trials) + 1e-12:
        return f"kept fraction {fil['kept_fraction']} vs eta^N = {keep}"
    return None


def _check_qfi_table(flags: dict[str, str], path: str) -> str | None:
    beta, fock_n, noon_n = float(flags["beta"]), int(flags["fock-n"]), int(flags["noon-n"])
    expected = {"coherent": 4 * beta * beta, "fock": float(fock_n), "noon": float(noon_n**2)}
    header, raw = _read_rows(path)
    rows = [dict(zip(header, r)) for r in raw]
    if sorted(r["case"].split()[0] for r in rows) != sorted(expected):
        return "qfi-table cases"
    for r in rows:
        fam, f_q, f_num = r["case"].split()[0], float(r["f_q"]), float(r["f_q_numeric"])
        if abs(f_q - expected[fam]) > 1e-8 * max(1.0, expected[fam]):
            return f"{fam} analytic QFI {f_q} vs {expected[fam]}"
        if abs(f_num - f_q) > 1e-5 * f_q:
            return f"{fam} numeric QFI {f_num} vs analytic {f_q}"
        if fam == "coherent" and abs(float(r["ratio"]) - math.sqrt(2)) > 1e-4:
            return f"coherent error-propagation ratio {r['ratio']} vs sqrt(2)"
    return None


def _check_metric(path: str) -> str | None:
    header, raw = _read_rows(path)
    if len(raw) != 6:
        return f"{len(raw)} metric-check rows, expected 6"
    for r in raw:
        row = dict(zip(header, r))
        if float(row["rel_error"]) > 1e-5:
            return f"metric-check rel_error {row['rel_error']} for {row['family']}"
    return None
