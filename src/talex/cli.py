"""Command-line front end.

Subcommands map one-to-one onto the library surface:

  alexander    classical Alexander polynomial of a presentation or diagram
  twisted      twisted Alexander value for one representation
  monic-scan   sweep a family of characters, reporting monic hits
  genus        degree census against the 4g-2 bound
  signature    Levine-Tristram signature report from a Seifert matrix
  satellite    Alexander polynomial of a satellite from its pieces
  pretzel935   the full character-curve pipeline with all certifications

JSON is the machine format (--json to stdout, --report PATH to a file);
the default rendering is human text.  Identical configurations produce
byte-identical output: all sampling is seeded, JSON keys are sorted, and
no timestamps are emitted.  Every failure exits nonzero with a
machine-readable reason on stderr; the exit code identifies the error
class (2 parse, 3 algebra, 4 non-polynomial quotient, 5 solver,
6 root-finding, 7 certification).
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import os
import sys
from fractions import Fraction

from . import charcurves
from ._threads import ordered_map
from .errors import (AlgebraError, NonPolynomialError, ParseError, SolveError,
                     TalexError)
from .fixtures import fixture_path
from .laurent import LaurentPoly
from .presentations import parse_pd, parse_presentation, pd_to_wirtinger
from .representations import (Representation, abelian_rep, parse_constraints,
                              representation_from_traces, satellite_alexander)
from .signature import (SeifertMatrix, averaged_signature,
                        is_identically_zero, lt_signature_detail,
                        signature_jumps)
from .twisted import (alexander, coefficient_profile, determines_genus,
                      genus_lower_bound, wada_invariant)


@dataclasses.dataclass
class RunConfig:
    """One fully-resolved invocation; identical configs give identical bytes."""

    command: str
    pres: str | None = None
    pd: str | None = None
    rep: str | None = None
    constraints: str | None = None
    seifert: str | None = None
    pattern: str | None = None
    companion: str | None = None
    lam: str | None = None
    winding: int = 0
    seed: int = 0
    report: str | None = None
    json_out: bool = False

    def __post_init__(self):
        if self.seed < 0:
            raise ParseError("seed must be nonnegative, got %d" % self.seed)


def _read_text(path: str) -> str:
    if not os.path.exists(path):
        # Corpus fallback: "fixtures/<name>" resolves to the packaged
        # fixture directory, so documented invocations work from any cwd.
        head, base = os.path.split(path)
        if os.path.basename(head) == "fixtures":
            try:
                path = fixture_path(base)
            except ParseError:
                pass
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from None


def _load_presentation(cfg: RunConfig):
    if cfg.pres and cfg.pd:
        raise ParseError("give either --pres or --pd, not both")
    if cfg.pres:
        return parse_presentation(_read_text(cfg.pres))
    if cfg.pd:
        return pd_to_wirtinger(parse_pd(_read_text(cfg.pd)))
    raise ParseError("a presentation is required (--pres or --pd)")


def _parse_scalar(text: str):
    """A scalar parameter: exact rational 'p/q' or complex 're,im' / 'a+bj'."""
    text = text.strip()
    try:
        return Fraction(text)
    except ValueError:
        pass
    if "," in text:
        re_s, im_s = text.split(",", 1)
        try:
            value = complex(float(re_s), float(im_s))
        except ValueError:
            raise ParseError("bad scalar %r" % text) from None
    else:
        try:
            value = complex(text)
        except ValueError:
            raise ParseError("bad scalar %r (expected p/q, re,im or a+bj)"
                             % text) from None
    if not cmath.isfinite(value):
        raise ParseError("non-finite scalar %r" % text)
    return value


def _load_representation(cfg: RunConfig, p) -> Representation:
    sources = [s for s in (cfg.rep, cfg.constraints, cfg.lam) if s]
    if len(sources) != 1:
        raise ParseError("give exactly one of --rep, --constraints, --lambda")
    if cfg.rep:
        try:
            data = json.loads(_read_text(cfg.rep))
        except json.JSONDecodeError as exc:
            raise ParseError("bad representation JSON: %s" % exc) from None
        return Representation.from_json_dict(data, p)
    if cfg.constraints:
        cons = parse_constraints(_read_text(cfg.constraints), p)
        return representation_from_traces(p, cons, seed=cfg.seed)
    return abelian_rep(p, _parse_scalar(cfg.lam))


def _load_alex_file(path: str) -> LaurentPoly:
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError("bad polynomial JSON in %s: %s" % (path, exc)) from None
    try:
        return LaurentPoly.from_json_dict(data)
    except AlgebraError as exc:
        raise ParseError("%s: %s" % (path, exc)) from None


def _fmt_complex(z) -> str:
    z = complex(z)
    if z.imag == 0:
        return "%.12g" % z.real
    return "%.12g%+.12gj" % (z.real, z.imag)


def _emit(cfg: RunConfig, payload: dict, text_lines: list[str]) -> None:
    if cfg.report or cfg.json_out:
        blob = json.dumps(payload, sort_keys=True, indent=2)
    if cfg.report:
        try:
            with open(cfg.report, "w", encoding="utf-8") as fh:
                fh.write(blob + "\n")
        except OSError as exc:
            raise ParseError("cannot write %s: %s"
                             % (cfg.report, exc)) from None
    if cfg.json_out:
        print(blob)
    else:
        for line in text_lines:
            print(line)
        if cfg.report:
            print("report written to %s" % cfg.report)


# -- subcommand bodies --------------------------------------------------------


def _cmd_alexander(cfg: RunConfig) -> None:
    p = _load_presentation(cfg)
    delta = alexander(p)
    _emit(cfg, {"alexander": delta.to_json_dict(), "text": delta.to_text()},
          [delta.to_text()])


def _cmd_twisted(cfg: RunConfig) -> None:
    p = _load_presentation(cfg)
    rho = _load_representation(cfg, p)
    ta = wada_invariant(p, rho)
    payload = {"twisted": ta.to_json_dict(),
               "representation_residual": rho.relator_residual()}
    lines = []
    if ta.polynomial is not None:
        lines.append(ta.polynomial.to_text())
        lines.append("degree span %d, leading %s, monic %s"
                     % (ta.degree, _fmt_complex(ta.leading),
                        "yes" if ta.monic else "no"))
    else:
        lines.append("not a polynomial; numerator %s, denominator %s"
                     % (ta.value.num.to_text(), ta.value.den.to_text()))
    _emit(cfg, payload, lines)


def _parse_sweep(text: str, p):
    """Split a constraint file into base constraints and one sweep line.

    The sweep directive has the form
        sweep <word> = <re0> <im0> .. <re1> <im1> steps <N>
    and every other non-comment line is a normal trace constraint.
    """
    base_lines = []
    sweep = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line.startswith("sweep"):
            base_lines.append(raw)
            continue
        if sweep is not None:
            raise ParseError("multiple sweep directives")
        parts = line.split()
        if (len(parts) != 10 or parts[2] != "=" or parts[5] != ".."
                or parts[8] != "steps"):
            raise ParseError("expected 'sweep <word> = <re0> <im0> .. "
                             "<re1> <im1> steps <N>', got %r" % line)
        try:
            start = complex(float(parts[3]), float(parts[4]))
            end = complex(float(parts[6]), float(parts[7]))
            steps = int(parts[9])
        except ValueError:
            raise ParseError("bad sweep numbers in %r" % line) from None
        if not (cmath.isfinite(start) and cmath.isfinite(end)):
            raise ParseError("non-finite sweep endpoint in %r" % line)
        if steps < 2:
            raise ParseError("sweep needs at least 2 steps")
        sweep = (p.word(parts[1]), parts[1], start, end, steps)
    if sweep is None:
        raise ParseError("monic-scan needs a sweep directive")
    base = parse_constraints("\n".join(base_lines), p)
    return base, sweep


def _cmd_monic_scan(cfg: RunConfig) -> None:
    p = _load_presentation(cfg)
    if cfg.rep or cfg.lam:
        raise ParseError("monic-scan takes --constraints, not --rep or --lambda")
    if not cfg.constraints:
        raise ParseError("monic-scan requires --constraints")
    base, (word, word_text, start, end, steps) = _parse_sweep(
        _read_text(cfg.constraints), p)

    def one(k: int) -> dict:
        target = start + (end - start) * (k / (steps - 1))
        cons = dict(base)
        cons[word] = target
        entry = {"step": k, "target": [target.real, target.imag]}
        try:
            rho = representation_from_traces(p, cons, seed=cfg.seed + k)
        except SolveError as exc:
            entry.update({"solved": False, "reason": str(exc)})
            return entry
        ta = wada_invariant(p, rho)
        entry["solved"] = True
        entry["residual"] = rho.residual
        if ta.polynomial is None:
            entry["polynomial"] = None
        else:
            lead = complex(ta.leading)
            entry.update({"polynomial": ta.polynomial.to_json_dict(),
                          "degree": ta.degree,
                          "leading": [lead.real, lead.imag],
                          "monic": bool(ta.monic)})
        return entry

    rows = ordered_map(one, range(steps))
    hits = [r["step"] for r in rows if r.get("monic")]
    payload = {"sweep_word": word_text, "steps": steps, "rows": rows,
               "monic_steps": hits, "monic_count": len(hits)}
    lines = ["sweep %s over %d steps: %d monic"
             % (word_text, steps, len(hits))]
    for r in rows:
        if not r["solved"]:
            lines.append("step %2d  target %s  unsolved" %
                         (r["step"], _fmt_complex(complex(*r["target"]))))
        elif r.get("polynomial") is None:
            lines.append("step %2d  target %s  non-polynomial" %
                         (r["step"], _fmt_complex(complex(*r["target"]))))
        else:
            lines.append("step %2d  target %s  leading %s%s" %
                         (r["step"], _fmt_complex(complex(*r["target"])),
                          _fmt_complex(complex(*r["leading"])),
                          "  MONIC" if r["monic"] else ""))
    _emit(cfg, payload, lines)


def _cmd_genus(cfg: RunConfig) -> None:
    p = _load_presentation(cfg)
    rho = _load_representation(cfg, p)
    ta = wada_invariant(p, rho)
    if ta.polynomial is None:
        raise NonPolynomialError(
            "twisted value is not a polynomial; no degree census")
    payload = {"degree": ta.degree,
               "genus_lower_bound": genus_lower_bound(ta)}
    lines = ["degree span %d" % ta.degree,
             "genus lower bound %d" % payload["genus_lower_bound"]]
    if cfg.seifert:
        v = SeifertMatrix.from_text(_read_text(cfg.seifert))
        g = v.genus()
        det_g = determines_genus(ta, g)
        prof = coefficient_profile(ta, g)
        payload.update({
            "seifert_genus": g,
            "determines_genus": det_g,
            "profile": [[complex(c).real, complex(c).imag] for c in prof],
        })
        lines.append("Seifert genus %d: 4g-2 = %d, %s"
                     % (g, 4 * g - 2,
                        "degree meets the bound (genus determined)" if det_g
                        else "degree below the bound"))
    _emit(cfg, payload, lines)


def _cmd_signature(cfg: RunConfig) -> None:
    if not cfg.seifert:
        raise ParseError("signature requires --seifert")
    v = SeifertMatrix.from_text(_read_text(cfg.seifert))
    delta = v.alexander()
    jumps = signature_jumps(v)
    ident = is_identically_zero(v)
    payload = {
        "size": v.n,
        "alexander": delta.to_text(),
        "jumps": [[theta, j] for theta, j in jumps],
        "identically_zero": ident,
    }
    lines = ["det(V - tV^T) = %s" % delta.to_text(),
             "jumps: " + (", ".join("%.6f -> %+d" % (t, j) for t, j in jumps)
                          if jumps else "none"),
             "identically zero: %s" % ("yes" if ident else "no")]
    if cfg.lam:
        try:
            omega = complex(_parse_scalar(cfg.lam))
        except OverflowError:
            raise ParseError("--lambda %r overflows a complex number"
                             % cfg.lam) from None
        sig, excluded = lt_signature_detail(v, omega)
        avg = averaged_signature(v, omega)
        payload.update({"omega": [omega.real, omega.imag],
                        "signature": sig,
                        "excluded_eigenvalues": excluded,
                        "averaged": [avg.numerator, avg.denominator]})
        lines.append("sigma(%s) = %d (%d zero eigenvalues excluded), "
                     "averaged %s" % (_fmt_complex(omega), sig, excluded, avg))
    _emit(cfg, payload, lines)


def _cmd_satellite(cfg: RunConfig) -> None:
    if not (cfg.pattern and cfg.companion):
        raise ParseError("satellite requires --pattern and --companion")
    pattern = _load_alex_file(cfg.pattern)
    companion = _load_alex_file(cfg.companion)
    out = satellite_alexander(pattern, companion, cfg.winding)
    _emit(cfg, {"alexander": out.to_json_dict(), "text": out.to_text(),
                "winding": cfg.winding},
          [out.to_text()])


def _cmd_pretzel935(cfg: RunConfig) -> None:
    curves = charcurves.curve_components()
    c_curve, cp_curve = curves
    psi = charcurves.psi2_polynomial()
    cert = charcurves.certify_psi2(curves, seed=cfg.seed)
    c18 = charcurves.census(c_curve, 18)
    monic = charcurves.census(cp_curve, 1)
    nongenus = charcurves.census(cp_curve, 0)
    loop = charcurves.monic_witness_report(monic)
    payload = {
        "curves": {"C": c_curve.to_text(), "Cprime": cp_curve.to_text()},
        "psi2": psi.to_text(),
        "certification": cert.to_json_dict(),
        "censuses": {
            "C": "identically 18" if c18.identically_satisfied
                 else str(c18.count),
            "monic": monic.to_json_dict(),
            "non_genus": nongenus.to_json_dict(),
        },
        "monic_loop": loop,
    }
    lines = [
        "C:  %s" % c_curve.to_text(),
        "C': %s" % cp_curve.to_text(),
        "psi2(x) = %s" % psi.to_text(),
        "certification: %d samples, max det error %.2e, max trace error %.2e"
        % (cert.samples, cert.max_det_error, cert.max_trace_error),
        "census on C at 18: %s"
        % ("identically satisfied" if c18.identically_satisfied
           else str(c18.count)),
        "monic characters on C': %s" % monic.count,
        "genus-indeterminate characters on C': %s" % nongenus.count,
        "closed loop: %d/%d witnesses monic"
        % (sum(1 for r in loop if r["monic"]), len(loop)),
    ]
    _emit(cfg, payload, lines)


_COMMANDS = {
    "alexander": _cmd_alexander,
    "twisted": _cmd_twisted,
    "monic-scan": _cmd_monic_scan,
    "genus": _cmd_genus,
    "signature": _cmd_signature,
    "satellite": _cmd_satellite,
    "pretzel935": _cmd_pretzel935,
}


def run(cfg: RunConfig) -> int:
    """Dispatch one configuration; returns the process exit status."""
    if cfg.command not in _COMMANDS:
        raise ParseError("unknown command %r" % cfg.command)
    _COMMANDS[cfg.command](cfg)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="talex",
        description="Twisted Alexander polynomials, signatures, and the "
                    "pretzel character-curve pipeline.")
    sub = ap.add_subparsers(dest="command", required=True)

    # Each subcommand registers only the options it reads; RunConfig holds
    # the defaults.
    def add(name: str, help_: str, **flags) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_)
        if flags.get("pres"):
            sp.add_argument("--pres", help="presentation file (gens:/rel: lines)")
            sp.add_argument("--pd", help="planar diagram code file (4 ints per line)")
        if flags.get("rep"):
            sp.add_argument("--rep", help="representation JSON file")
            sp.add_argument("--constraints", help="trace constraint file")
            sp.add_argument("--lambda", dest="lam",
                            help="abelian eigenvalue (p/q, re,im or a+bj)")
        if flags.get("seifert"):
            sp.add_argument("--seifert", help="Seifert matrix file")
        if flags.get("satellite"):
            sp.add_argument("--pattern", help="pattern Alexander JSON file")
            sp.add_argument("--companion", help="companion Alexander JSON file")
            sp.add_argument("--winding", type=int, default=0,
                            help="winding number of the pattern")
        if flags.get("omega"):
            sp.add_argument("--lambda", dest="lam",
                            help="unit-circle evaluation point omega")
        if flags.get("seed"):
            sp.add_argument("--seed", type=int,
                            help="seed for all sampling (default 0)")
        sp.add_argument("--report", help="write the JSON report to this path")
        sp.add_argument("--json", dest="json_out", action="store_true",
                        help="print JSON instead of text")
        return sp

    add("alexander", "classical Alexander polynomial", pres=True)
    add("twisted", "twisted Alexander value of one representation",
        pres=True, rep=True, seed=True)
    add("monic-scan", "sweep characters and report monic hits",
        pres=True, rep=True, seed=True)
    add("genus", "degree census against the 4g-2 bound",
        pres=True, rep=True, seifert=True, seed=True)
    add("signature", "Levine-Tristram signature report", seifert=True,
        omega=True)
    add("satellite", "satellite Alexander polynomial", satellite=True)
    add("pretzel935", "full character-curve pipeline with certifications",
        seed=True)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    kwargs = {k: v for k, v in vars(args).items() if k in fields and
              v is not None}
    try:
        cfg = RunConfig(**kwargs)
        return run(cfg)
    except TalexError as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "reason": str(exc)},
            sort_keys=True) + "\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
