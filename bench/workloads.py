"""The three benchmark workloads, as rounds of CLI jobs with their checks.

A job is one `sitaspect` invocation, given as its argv, plus what its
output must show. A run executes whole rounds; every round of a workload has
the same job mix, and only the seed-derived contents differ, so the mix a
run measures does not depend on how many rounds fit in its time. Where the
median or the 90th percentile of job time falls, the jobs of a round have
spread-out costs rather than one shared cost: the machine's speed drifts
during a run, and a percentile taken inside a group of equal jobs would jump
between the group's fast and slow times instead of moving with the share of
the run spent at each speed.
Round 0 additionally holds the jobs on the repository's fixtures, which can
each run only once per run because no two jobs in a run share an argv.

Every input file is written under the run's work directory; the program
sees only those files (and the fixtures) through argv.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import gen

FIXTURES = Path("tests") / "fixtures"
WORKLOADS = ("query", "lint", "models")

# Objects of the fixture domains, so the reference simulators can drive them.
FIXTURE_BLOCKS = gen.Blocks(["a", "b", "c"])
FIXTURE_ROOMS = gen.Rooms(["a", "b", "c"], ["r1", "r2"])
FIXTURE_DISPLAY = gen.Display(["p1", "p2", "p3"], ["m1", "m2"])

FIXTURE_MODELS = (("heater.model", "rel-exists"),
                  ("heater_all.model", "rel-forall"),
                  ("university.model", "coll-rel-exists"),
                  ("university.model", "coll-fun"))


@dataclass
class Job:
    label: str               # the job's kind and input family, e.g. "check blocks-4"
    argv: list[str]
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    ok: bool
    reason: str
    counts: dict
    digest: str


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Inputs:
    """Writes a run's generated files under one work directory."""

    def __init__(self, workdir: Path):
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        return str(path)


# ---------------------------------------------------------------------------
# Job builders
# ---------------------------------------------------------------------------

def _compare(inputs, tag, domain_path, fam, queries, rng):
    init = inputs.write(f"{tag}.init", gen.state_text(fam.random_state(rng)))
    return Job(f"compare {tag.split('-', 1)[1]}",
               ["compare", domain_path, "--random", str(queries),
                "--seed", str(rng.randrange(10**6)), "--init", "@" + init,
                "--report", "json"])


def _walk_jobs(inputs, tag, domain_path, fam, walks, rng, seen):
    """`walks` seeded walks, each asked in three query modes and simulated."""
    init_state = fam.random_state(rng)
    init = "@" + inputs.write(f"{tag}.init", gen.state_text(init_state))
    family = tag.split("-", 1)[1]
    fluents = fam.fluents()
    jobs = []
    for _ in range(walks):
        for _attempt in range(50):
            acts, final = gen.random_walk(fam, init_state, rng.randint(1, 4), rng)
            acts_text = "; ".join(gen.atom_text(a) for a in acts)
            target = rng.choice(fluents)
            key = (domain_path, init, acts_text, gen.atom_text(target))
            if key not in seen:
                seen.add(key)
                break
        expected = "true" if target in final else "false"
        for mode in ("aspect", "ssa", "oracle"):
            jobs.append(Job(f"query {family}",
                            ["query", domain_path, "--init", init,
                             "--acts", acts_text,
                             "--fluent", gen.atom_text(target),
                             "--mode", mode, "--report", "json"],
                            {"answer": expected}))
        jobs.append(Job(f"simulate {family}",
                        ["simulate", domain_path, "--init", init,
                         "--acts", acts_text, "--report", "json"],
                        {"final": sorted(gen.atom_text(a) for a in final)}))
    return jobs


def query_round(inputs: Inputs, seed: int, r: int) -> list[Job]:
    rng = random.Random(f"query/{seed}/{r}")
    blocks4 = gen.blocks(4, rng)
    blocks5 = gen.blocks(5, rng)
    rooms2 = gen.rooms(2, 2, rng)
    display4 = gen.display(4, 2, rng)
    paths = {
        "blocks-fixture": str(FIXTURES / "blocks.dom"),
        "rooms-fixture": str(FIXTURES / "rooms.dom"),
        "display-fixture": str(FIXTURES / "display.dom"),
        "blocks-4": inputs.write(f"r{r}-blocks-4.dom", blocks4.domain_text()),
        "blocks-5": inputs.write(f"r{r}-blocks-5.dom", blocks5.domain_text()),
        "rooms-2": inputs.write(f"r{r}-rooms-2.dom", rooms2.domain_text()),
        "display-4": inputs.write(f"r{r}-display-4.dom", display4.domain_text()),
    }
    fams = {"blocks-fixture": FIXTURE_BLOCKS, "rooms-fixture": FIXTURE_ROOMS,
            "display-fixture": FIXTURE_DISPLAY, "blocks-4": blocks4,
            "blocks-5": blocks5, "rooms-2": rooms2, "display-4": display4}
    # A round has 35 jobs, so the 90th percentile is the 4th slowest, the
    # blocks-fixture compare. Its 60 queries (and blocks-4's, the 3rd
    # slowest) average out the cost of single random queries, which would
    # otherwise move the percentile from seed to seed.
    compare_sizes = {"blocks-fixture": 60, "blocks-4": 60, "blocks-5": 30,
                     "rooms-fixture": 20, "rooms-2": 20,
                     "display-fixture": 30, "display-4": 30}
    jobs = [_compare(inputs, f"r{r}c-{name}", paths[name], fams[name], q, rng)
            for name, q in compare_sizes.items()]
    seen: set = set()
    walks = {"blocks-fixture": 2, "blocks-5": 1, "rooms-fixture": 2, "display-4": 2}
    for name, count in walks.items():
        jobs += _walk_jobs(inputs, f"r{r}w-{name}", paths[name], fams[name], count,
                           rng, seen)
    rng.shuffle(jobs)
    return jobs


def lint_round(inputs: Inputs, seed: int, r: int) -> list[Job]:
    rng = random.Random(f"lint/{seed}/{r}")
    families = {f"blocks-{n}": gen.blocks(n, rng) for n in (3, 4, 5, 6)}
    families.update({f"display-{k}": gen.display(k, 2, rng) for k in (3, 4, 5, 6)})
    # Check jobs stay on the families under the soundness lint's guard-fluent
    # bound. Frames jobs, on which the median falls, run once on every size
    # (plus `--universe` on three), so that their times spread over a range.
    # A round has 17 jobs, so the median is the 9th, `frames display-5`, with
    # 8 jobs on either side: it falls inside one job's spread of times, not
    # on the edge between two jobs of different cost.
    checked = ("blocks-3", "blocks-4", "blocks-5", "display-3", "display-4")
    universe = ("blocks-3", "blocks-4", "display-3")
    jobs = []
    for name, fam in families.items():
        path = inputs.write(f"r{r}-{name}.dom", fam.domain_text())
        if name in checked:
            jobs.append(Job(f"check {name}", ["check", path, "--report", "json"]))
        jobs.append(Job(f"frames {name}", ["frames", path, "--report", "json"]))
        if name in universe:
            jobs.append(Job(f"frames-universe {name}",
                            ["frames", path, "--universe", _shuffled_universe(fam, rng),
                             "--report", "json"]))
    comm = gen.display(3, 2, rng, disjoint="commutative(computer display)")
    path = inputs.write(f"r{r}-display-3-comm.dom", comm.domain_text())
    jobs.append(Job("check display-3-comm", ["check", path, "--report", "json"]))
    if r == 0:
        for name in ("blocks.dom", "blocks_nosupport.dom", "rooms.dom",
                     "display.dom", "economy.dom"):
            fixture = str(FIXTURES / name)
            jobs.append(Job(f"check {name}", ["check", fixture, "--report", "json"]))
            if name == "blocks.dom":
                jobs.append(Job("frames blocks.dom (golden)", ["frames", fixture],
                                {"golden": str(FIXTURES / "frames_blocks.golden")}))
            else:
                jobs.append(Job(f"frames {name}",
                                ["frames", fixture, "--report", "json"]))
        jobs.append(Job("frames-universe blocks.dom",
                        ["frames", str(FIXTURES / "blocks.dom"), "--universe",
                         _shuffled_universe(FIXTURE_BLOCKS, rng), "--report", "json"]))
        jobs.append(Job("frames-universe display.dom",
                        ["frames", str(FIXTURES / "display.dom"), "--universe",
                         _shuffled_universe(FIXTURE_DISPLAY, rng), "--report", "json"]))
    rng.shuffle(jobs)
    return jobs


def _shuffled_universe(fam, rng: random.Random) -> str:
    """A `--universe` value: the family's own objects, each sort reordered."""
    sorts = []
    for sort, objs in fam.sorts().items():
        objs = list(objs)
        rng.shuffle(objs)
        sorts.append(f"{sort}: {', '.join(objs)}")
    return "; ".join(sorts)


def models_round(inputs: Inputs, seed: int, r: int) -> list[Job]:
    rng = random.Random(f"models/{seed}/{r}")
    jobs = []
    # Each round hands out the same random-sample counts, shuffled over the
    # formalisms: the work per round is fixed, and the search times, on
    # which the 90th percentile falls, spread over a range.
    samples = [100 * k for k in range(1, len(gen.FORMALISMS) + 1)]
    rng.shuffle(samples)
    for formalism, count in zip(gen.FORMALISMS, samples):
        jobs.append(Job(f"search {formalism}",
                        ["search", formalism, "--max-situations", "3",
                         "--seed", str(rng.randrange(10**6)),
                         "--random-samples", str(count), "--report", "json"]))
    jobs.append(Job("pitfall", ["pitfall", "--seed", str(rng.randrange(10**6)),
                                "--max-situations", "2",
                                "--functional-situations", "3",
                                "--random-samples", "500", "--report", "json"]))
    # Three models per simple formalism and two per slower collective one, so
    # the median falls well inside the simple validations.
    for formalism in gen.FORMALISMS:
        collective = formalism.startswith("coll-")
        for k, stored in enumerate((True, False) if collective else (True, False, True)):
            n = rng.randint(4, 6 if collective else 8)
            name = f"r{r}_{formalism.replace('-', '_')}_{k}{'w' if stored else 'search'}"
            text = gen.random_model(rng, formalism, n, stored, name)
            path = inputs.write(f"{name}.model", text)
            label = f"validate {formalism} {'stored' if stored else 'searched'}"
            jobs.append(Job(label, ["validate", path, "--formalism", formalism,
                                    "--report", "json"],
                            {"verdicts": ("pass", "vacuous")}))
    if r == 0:
        for name, formalism in FIXTURE_MODELS:
            jobs.append(Job(f"validate {name} {formalism}",
                            ["validate", str(FIXTURES / name), "--formalism",
                             formalism, "--report", "json"],
                            {"verdicts": ("pass",)}))
    rng.shuffle(jobs)
    return jobs


ROUNDS = {"query": query_round, "lint": lint_round, "models": models_round}


def warmup_jobs(workload: str, inputs: Inputs) -> list[Job]:
    """A few small jobs of each kind the workload runs, never timed."""
    rng = random.Random(f"warmup/{workload}")
    if workload == "query":
        path = str(FIXTURES / "blocks.dom")
        jobs = [_compare(inputs, "w-blocks", path, FIXTURE_BLOCKS, 5, rng)]
        return jobs + _walk_jobs(inputs, "w-blocks", path, FIXTURE_BLOCKS, 1,
                                 rng, set())
    if workload == "lint":
        path = inputs.write("w-blocks-3.dom", gen.blocks(3, rng).domain_text())
        return [Job("check", ["check", path, "--report", "json"]),
                Job("frames", ["frames", path, "--report", "json"])]
    path = inputs.write("w.model", gen.random_model(rng, "rel-exists", 4, False, "w"))
    return [Job("search", ["search", "fun", "--max-situations", "2",
                           "--random-samples", "10", "--report", "json"]),
            Job("pitfall", ["pitfall", "--max-situations", "1",
                            "--functional-situations", "2",
                            "--random-samples", "10", "--report", "json"]),
            Job("validate", ["validate", path, "--formalism", "rel-exists",
                             "--report", "json"], {"verdicts": ("pass", "vacuous")})]


# ---------------------------------------------------------------------------
# Checks and work counts
# ---------------------------------------------------------------------------

def check(job: Job, code: int, out: str, err: str) -> Outcome:
    """Whether the job's output is correct, and the work counts it reports."""
    command = job.argv[0]
    d = digest(out)
    if "golden" in job.expect:
        golden = Path(job.expect["golden"]).read_text(encoding="utf-8")
        ok = code == 0 and out == golden
        return Outcome(ok, "" if ok else "output differs from the golden file", {}, d)
    try:
        report = json.loads(out)["report"]
    except (ValueError, KeyError):
        return Outcome(False, f"exit {code}, no JSON report: {err.strip()[:200]}", {}, d)
    try:
        counts, reason = _check_report(job, command, code, report)
    except (KeyError, TypeError, AttributeError) as exc:
        counts, reason = {}, f"exit {code}, report lacks the expected field {exc}"
    return Outcome(not reason, reason, counts if not reason else {}, d)


def _check_report(job: Job, command: str, code: int, report: dict):
    """(work counts, failure reason or "") for one command's JSON report."""
    counts: dict = {}
    reason = ""
    if command == "compare":
        if code != 0 or report.get("all_agree") is not True:
            return {}, f"modes disagree: {report.get('disagreement')}"
        counts = {"comparable": report["comparable"], "queries": report["queries"]}
    elif command == "query":
        answer = report["answer"]
        allowed = {job.expect["answer"]}
        if report["mode"] == "aspect":
            allowed.add("undefined")  # regression may lack an axiom; never a wrong value
        if code != 0 or answer not in allowed:
            reason = f"answer {answer}, expected {job.expect['answer']}"
    elif command == "simulate":
        final = sorted(i["fluent"] for i in report["final"] if i["value"])
        if code != 0 or final != job.expect["final"]:
            reason = "final state differs from the reference simulator"
    elif command == "check":
        s = report["soundness"]
        counts = {"actions_checked": s["actions_checked"],
                  "valuations_checked": s["valuations_checked"],
                  "unresolved": len(s["unresolved"]),
                  "monotonicity_checked": report["monotonicity"]["checked"]}
        if code != 0:
            reason = f"exit {code}: {len(s['violations'])} soundness violations"
    elif command == "frames":
        counts = {"ground_axioms": report["ground_count"]}
        if code != 0 or report["errors"]:
            reason = f"exit {code}, errors {report['errors'][:2]}"
    elif command == "search":
        counts = {"exhaustive_models": report["exhaustive_models"],
                  "exhaustive_premise_models": report["exhaustive_premise_models"],
                  "random_models": report["random_models"],
                  "random_premise_models": report["random_premise_models"]}
        if code != 0 or report["counterexample_found"] is not False:
            reason = "counterexample found"
    elif command == "pitfall":
        if code != 0 or report["reproduced"] is not True:
            reason = "commutativity trap not reproduced"
    elif command == "validate":
        verdict = report["verdict"]
        counts = {"premise_checks": len(report["premises"])}
        if verdict not in job.expect["verdicts"]:
            reason = f"verdict {verdict}"
    return counts, reason
