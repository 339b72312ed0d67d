"""The first chain link, J(S)J against JS+SJ+J(S)J, in closed form.

The link is equal exactly when J is idempotent or (S) is J-soft, and strict
otherwise.  A reduced J is idempotent exactly when it is 0, F(H) or K(H), or
when its generator has finite support or rate below one; on today's grammar
(S) is J-soft exactly when s has finite support or rate below one.  The rule
is checked here against ``probe_chain_link`` and ``classify_principal`` on a
grid of 16 sequences by 19 ideals, and on the ideals of the 0x5EED corpus of
``numeric_golden.json``.  Every No names the witness g*r*s, with g the
reduced generator of J, and the engine's own ``member`` confirms that g*r
lies in J and g*r*s outside J(S)J.
"""

import json
from pathlib import Path

import opideals as op
from opideals.classify import classify_principal, nonlinearity_witness, probe_chain_link
from opideals.cli import main
from opideals.growth import profile
from opideals.ideals import IdealProduct, Principal, SoftInterior, member, reduce_ideal

SEQS = ["pow(1)", "pow(2)", "pow(1/2)", "pow(3/2)", "pow(0,1)", "pow(0,2)", "pow(0,1/2)", "pow(1,1)",
        "pow(1,-1/2)", "geo(1/2)", "geo(1/3)", "prod(geo(1/2),pow(1))", "fin(3,2,1)", "sum(pow(2),geo(1/2))",
        "amp(2,pow(1))", "dec(2,pow(1))"]
IDEALS = ["KH", "FH", "prin(fin(2,1))", "prin(pow(1))", "prin(pow(1/2))", "prin(pow(0,1))", "prin(pow(0,1/2))",
          "prin(pow(0,1/3))", "prin(geo(1/2))", "prod(prin(pow(1)),KH)", "prod(prin(pow(1/2)),KH)",
          "prod(prin(pow(0,1)),KH)", "prod(prin(pow(0,1/2)),KH)", "prod(prin(pow(0,1/3)),KH)",
          "prod(prin(geo(1/2)),KH)", "pow(prin(pow(1)),2)", "pow(prin(pow(0,1)),2)",
          "sum(prin(pow(2)),prod(prin(pow(1)),KH))", "prin(pow(1,-1/2))"]
GOLDEN = json.loads((Path(__file__).with_name("numeric_golden.json")).read_text(encoding="utf-8"))


def pairs() -> list[tuple[op.SeqExpr, op.IdealDesc]]:
    """(S, J) with S in J: the grid, then every grid sequence and the corpus's own a against each corpus ideal."""
    texts = [(s, j) for s in SEQS for j in IDEALS]
    texts += [(s, case["ideal"]) for case in GOLDEN for s in SEQS + [case["a"]]]
    out = []
    for s_text, j_text in dict.fromkeys(texts):
        s, j = op.parse_seq(s_text), op.parse_ideal(j_text)
        if member(s, j).is_yes:
            out.append((s, j))
    return out


PAIRS = pairs()


def fast(p) -> bool:
    """Finite support or rate below one."""
    return p.support is not None or not p.growth.rate_is_one


def rule_case(s: op.SeqExpr, ideal: op.IdealDesc) -> str | None:
    """Why the link is equal by the rule ("idempotent" or "soft"), or None when it is strict."""
    red = reduce_ideal(ideal)
    if not isinstance(red, (Principal, SoftInterior)) or fast(profile(red.generator)):
        return "idempotent"
    return "soft" if fast(profile(s)) else None


def strict_witness(s: op.SeqExpr, ideal: op.IdealDesc) -> tuple[op.SeqExpr, op.SeqExpr]:
    """(g*r, g*r*s) for a J that is not idempotent: r = 1 for (g), a half power of g's class for (g)K(H)."""
    red = reduce_ideal(ideal)
    g = red.generator
    if isinstance(red, Principal):
        return g, op.seq_product(g, s)
    c = profile(g).growth
    r = op.power_log(c.power / 2) if c.power > 0 else op.power_log(0, c.logpower / 2)
    gr = op.seq_product(g, r)
    return gr, op.seq_product(gr, s)


def test_probe_and_first_link_follow_the_rule():
    assert len(PAIRS) > 190
    assert {type(reduce_ideal(j)).__name__ for _, j in PAIRS} >= {"KH", "FH", "Principal", "SoftInterior"}
    assert {rule_case(s, j) for s, j in PAIRS} == {"idempotent", "soft", None}
    wrong = []
    for s, j in PAIRS:
        case = rule_case(s, j)
        probe = probe_chain_link(s, j)
        first = classify_principal(s, j).chain[0].relation
        named = probe.is_no if case is None else probe.is_yes and case in probe.witness.note
        if not named or first != ("strict" if case is None else "equal"):
            wrong.append((op.render_seq(s), op.render_ideal(j), probe.outcome.value, first))
    assert wrong == []


def test_every_no_names_a_witness_in_js_outside_the_nucleus():
    checked = 0
    for s, j in PAIRS:
        probe = probe_chain_link(s, j)
        if not probe.is_no:
            continue
        gr, grs = strict_witness(s, j)
        assert member(gr, j).is_yes, (op.render_seq(s), op.render_ideal(j))
        nucleus = IdealProduct(j, IdealProduct(Principal(s), j))
        assert member(grs, nucleus).is_no, (op.render_seq(s), op.render_ideal(j))
        assert f"*{op.render_seq(s)} lies in JS but not in J(S)J" in probe.certificate.note
        checked += 1
    assert checked > 50


def test_no_answer_is_unknown_on_the_symbolic_path():
    unknown = []
    for s, j in PAIRS:
        rep = classify_principal(s, j)
        answers = [probe_chain_link(s, j).outcome.value, rep.is_bh_ideal.outcome.value,
                   nonlinearity_witness(s, j).outcome.value] + [link.relation for link in rep.chain]
        if "unknown" in answers:
            unknown.append((op.render_seq(s), op.render_ideal(j), answers))
    assert unknown == []


def test_soft_interiors_of_log_generators_are_strict():
    cases = (("pow(0,1)", "pow(0,1/2)", "pow(0,1/4)"), ("pow(1,-1/2)", "pow(0,1/2)", "pow(0,1/4)"),
             ("pow(1)", "pow(0,1/3)", "pow(0,1/6)"))
    for s_text, g_text, r_text in cases:
        s = op.parse_seq(s_text)
        j = IdealProduct(Principal(op.parse_seq(g_text)), op.KH())
        probe = probe_chain_link(s, j)
        assert probe.is_no
        assert probe.certificate.note.startswith(f"witness gen(J)*{r_text}*{s_text} lies in JS but not in J(S)J")
        assert [link.relation for link in classify_principal(s, j).chain] == ["strict"] * 5
        gr, grs = strict_witness(s, j)
        assert op.render_seq(gr) == f"prod({g_text},{r_text})"
        assert member(gr, j).is_yes
        assert member(grs, IdealProduct(j, IdealProduct(Principal(s), j))).is_no


def test_cli_prints_the_strict_first_link(capsys):
    code = main(["classify", "pow(0,1)", "prod(prin(pow(0,1/2)),KH)"])
    out = capsys.readouterr().out
    assert code == 0
    assert "chain: J(S)J < JS+SJ+J(S)J\n" in out
    assert "?" not in out
