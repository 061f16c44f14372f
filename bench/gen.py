"""Seeded input generators for the benchmark workloads.

Three domain families, each a DSL text plus initial states and a small
reference simulator of the family's effect rules:

* blocks-N: the blocks fixture with N blocks;
* rooms-N: the multi-room fixture with N blocks spread over k rooms;
* display-k: the display fixture with k pixels and j memory cells.

The simulators implement each family's preconditions and effects directly
on sets of true ground atoms (no aspects, no component tree). They choose
the walks for `query` and `simulate` jobs and predict their answers, so the
program under test is checked against a reference that shares no code
with it.

`random_model` writes finite model files for the thirteen formalisms with n
situations. Their premises hold or fail at random; by the theorem no model
may ever get the verdict `counterexample`.

Everything is a pure function of the `random.Random` passed in.
"""

from __future__ import annotations

import itertools
import random

# ---------------------------------------------------------------------------
# Domain families
# ---------------------------------------------------------------------------

Atom = tuple  # (schema, arg, ...); a set-valued arg is a sorted tuple


def atom_text(atom: Atom) -> str:
    args = []
    for a in atom[1:]:
        args.append("{" + ",".join(a) + "}" if isinstance(a, tuple) else a)
    return f"{atom[0]}({','.join(args)})"


def state_text(state: frozenset) -> str:
    return "; ".join(sorted(atom_text(a) for a in state))


def _names(rng: random.Random, prefix: str, count: int) -> list[str]:
    """`count` distinct object names like b17, drawn (and ordered) by rng."""
    numbers = rng.sample(range(1, 10 * count + 10), count)
    return [f"{prefix}{k}" for k in numbers]


class Blocks:
    """blocks-N: `move(x,y)` needs clear(x) and clear(y)."""

    family = "blocks"

    def __init__(self, blocks: list[str], disjoint: str = "seq-diff"):
        self.blocks = list(blocks)
        self.places = self.blocks + ["floor"]
        self.disjoint = disjoint

    def domain_text(self) -> str:
        return "\n".join([
            "domain blocks",
            f"objects block: {', '.join(self.blocks)}",
            f"objects place: {', '.join(self.places)}",
            "fluent on(block, place)",
            "fluent clear(place)",
            "action move(block, place)",
            "aspect on(x,y) (y)",
            "aspect clear(x) (x)",
            "aspect move(x,y) ({y,z}) if on(x,z)",
            "pre move(x,y) clear(x) & clear(y)",
            "effect move(x,y) add on(x,y)",
            "effect move(x,y) del on(x,z) if on(x,z)",
            "effect move(x,y) del clear(y)",
            "effect move(x,y) add clear(z) if on(x,z)",
            f"disjoint by {self.disjoint}",
        ]) + "\n"

    def sorts(self) -> dict[str, list[str]]:
        return {"block": self.blocks, "place": self.places}

    def fluents(self) -> list[Atom]:
        return ([("on", b, p) for b in self.blocks for p in self.places]
                + [("clear", p) for p in self.places])

    def random_state(self, rng: random.Random) -> frozenset:
        order = list(self.blocks)
        rng.shuffle(order)
        state = {("clear", "floor")}
        below = "floor"
        for b in order:
            if below != "floor" and rng.random() < 0.4:
                below = "floor"  # start a new stack
            state.add(("on", b, below))
            below = b
        covered = {a[2] for a in state if a[0] == "on"}
        state |= {("clear", b) for b in self.blocks if b not in covered}
        return frozenset(state)

    def applicable(self, state: frozenset) -> list[Atom]:
        return [("move", x, y) for x in self.blocks for y in self.places
                if ("clear", x) in state and ("clear", y) in state]

    def apply(self, state: frozenset, act: Atom) -> frozenset:
        _, x, y = act
        supports = [a[2] for a in state if a[0] == "on" and a[1] == x]
        dels = {("on", x, z) for z in supports} | {("clear", y)}
        adds = {("on", x, y)} | {("clear", z) for z in supports}
        return frozenset((state - dels) | adds)


class Rooms:
    """rooms-N: blocks on floors in k rooms; `transfer` changes room."""

    family = "rooms"

    def __init__(self, blocks: list[str], rooms: list[str]):
        self.blocks = list(blocks)
        self.rooms = list(rooms)
        self.floors = [f"f{r[1:]}" for r in self.rooms]
        self.places = self.blocks + self.floors

    def domain_text(self) -> str:
        lines = [
            "domain rooms",
            f"objects block: {', '.join(self.blocks)}",
            f"objects place: {', '.join(self.places)}",
            f"objects room: {', '.join(self.rooms)}",
            "fluent on(block, place)",
            "fluent clear(place)",
            "fluent at_room(place, room)",
            "action move(block, place)",
            "action transfer(block, place)",
            "aspect on(x,w) (r, w) if at_room(w, r)",
            "aspect clear(x) (r, z) if at_room(x, r) & on(x, z)",
            "aspect clear(x) (r, x) if at_room(x, r) & !on(x, z)",
            "aspect at_room(x, q) (r, x) if at_room(x, r)",
        ]
        for verb, rooms, pre in (
                ("move", "{r}", "on(x,z) & at_room(y,r)"),
                ("transfer", "{r,q}", "on(x,z) & at_room(z,r) & at_room(y,q)")):
            lead = "x,y,z" if verb == "transfer" else "y,z"
            for u, v in itertools.product((True, False), repeat=2):
                members = lead + (",u" if u else "") + (",v" if v else "")
                guard = (f"{pre} & {'' if u else '!'}on(y,u) & "
                         f"{'' if v else '!'}on(z,v)")
                lines.append(f"aspect {verb}(x,y) ({rooms}, {{{members}}}) "
                             f"if {guard}")
        lines += [
            "pre move(x,y) clear(x) & clear(y) & on(x,z) & at_room(z,r) & at_room(y,r)",
            "pre transfer(x,y) clear(x) & clear(y) & on(x,z) & at_room(z,r) & at_room(x,r)",
        ]
        for verb in ("move", "transfer"):
            lines += [
                f"effect {verb}(x,y) add on(x,y)",
                f"effect {verb}(x,y) del on(x,z) if on(x,z)",
                f"effect {verb}(x,y) del clear(y)",
                f"effect {verb}(x,y) add clear(z) if on(x,z)",
            ]
        lines += [
            "effect transfer(x,y) add at_room(x,q) if at_room(y,q)",
            "effect transfer(x,y) del at_room(x,w) if at_room(x,w)",
            "disjoint by seq-diff",
        ]
        return "\n".join(lines) + "\n"

    def sorts(self) -> dict[str, list[str]]:
        return {"block": self.blocks, "place": self.places, "room": self.rooms}

    def fluents(self) -> list[Atom]:
        return ([("on", b, p) for b in self.blocks for p in self.places]
                + [("clear", p) for p in self.places]
                + [("at_room", p, r) for p in self.places for r in self.rooms])

    def random_state(self, rng: random.Random) -> frozenset:
        state = set()
        for room, floor in zip(self.rooms, self.floors):
            state |= {("at_room", floor, room), ("clear", floor)}
        tops = {}
        order = list(self.blocks)
        rng.shuffle(order)
        for b in order:
            k = rng.randrange(len(self.rooms))
            room, floor = self.rooms[k], self.floors[k]
            below = tops.get(room, floor) if rng.random() < 0.6 else floor
            state |= {("on", b, below), ("at_room", b, room)}
            tops[room] = b
        covered = {a[2] for a in state if a[0] == "on"}
        state |= {("clear", b) for b in self.blocks if b not in covered}
        return frozenset(state)

    def _room_of(self, state: frozenset, place: str) -> set[str]:
        return {a[2] for a in state if a[0] == "at_room" and a[1] == place}

    def applicable(self, state: frozenset) -> list[Atom]:
        out = []
        for x in self.blocks:
            if ("clear", x) not in state:
                continue
            support_rooms = set()
            for a in state:
                if a[0] == "on" and a[1] == x:
                    support_rooms |= self._room_of(state, a[2])
            if not support_rooms:
                continue
            x_rooms = self._room_of(state, x)
            for y in self.places:
                if ("clear", y) not in state:
                    continue
                if support_rooms & self._room_of(state, y):
                    out.append(("move", x, y))
                if support_rooms & x_rooms:
                    out.append(("transfer", x, y))
        return out

    def apply(self, state: frozenset, act: Atom) -> frozenset:
        verb, x, y = act
        supports = [a[2] for a in state if a[0] == "on" and a[1] == x]
        dels = {("on", x, z) for z in supports} | {("clear", y)}
        adds = {("on", x, y)} | {("clear", z) for z in supports}
        if verb == "transfer":
            dels |= {("at_room", x, w) for w in self._room_of(state, x)}
            adds |= {("at_room", x, q) for q in self._room_of(state, y)}
        return frozenset((state - dels) | adds)


class Display:
    """display-k: set-valued pixel and cell actions, no preconditions."""

    family = "display"

    def __init__(self, pixels: list[str], cells: list[str],
                 disjoint: str = "seq-diff"):
        self.pixels = list(pixels)
        self.cells = list(cells)
        self.disjoint = disjoint

    def domain_text(self) -> str:
        return "\n".join([
            "domain display",
            f"objects pixel: {', '.join(self.pixels)}",
            f"objects cell: {', '.join(self.cells)}",
            "fluent pixel_lit(pixel)",
            "fluent cell_set(cell)",
            "fluent window_open()",
            "fluent door_open()",
            "action light_pixels(set of pixel)",
            "action dark_pixels(set of pixel)",
            "action write_cells(set of cell)",
            "action open_window()",
            "action close_door()",
            "action meteorite()",
            "home pixel_lit (computer, display)",
            "home cell_set (computer, memory)",
            "home window_open (window)",
            "home door_open (door)",
            "aspect pixel_lit(x) (computer, display, {x})",
            "aspect cell_set(x) (computer, memory, {x})",
            "aspect window_open() (window)",
            "aspect door_open() (door)",
            "aspect light_pixels(S) (computer, display, S)",
            "aspect dark_pixels(S) (computer, display, S)",
            "aspect write_cells(T) (computer, memory, T)",
            "aspect open_window() (window)",
            "aspect close_door() (door)",
            "aspect meteorite() ()",
            "effect light_pixels(S) add pixel_lit(x) if x in S",
            "effect dark_pixels(S) del pixel_lit(x) if x in S",
            "effect write_cells(T) add cell_set(x) if x in T",
            "effect open_window() add window_open()",
            "effect close_door() del door_open()",
            "effect meteorite() del window_open()",
            "effect meteorite() del door_open()",
            "effect meteorite() del pixel_lit(x) if pixel_lit(x)",
            "effect meteorite() del cell_set(x) if cell_set(x)",
            "frame meteorite() pixel_lit(x)",
            "frame meteorite() cell_set(x)",
            f"disjoint by {self.disjoint}",
        ]) + "\n"

    def sorts(self) -> dict[str, list[str]]:
        return {"pixel": self.pixels, "cell": self.cells}

    def fluents(self) -> list[Atom]:
        return ([("pixel_lit", p) for p in self.pixels]
                + [("cell_set", c) for c in self.cells]
                + [("window_open",), ("door_open",)])

    def random_state(self, rng: random.Random) -> frozenset:
        return frozenset(f for f in self.fluents() if rng.random() < 0.5)

    def _subsets(self, objs: list[str]) -> list[tuple]:
        return [tuple(sorted(c)) for k in range(1, len(objs) + 1)
                for c in itertools.combinations(objs, k)]

    def applicable(self, state: frozenset) -> list[Atom]:
        return ([("light_pixels", s) for s in self._subsets(self.pixels)]
                + [("dark_pixels", s) for s in self._subsets(self.pixels)]
                + [("write_cells", s) for s in self._subsets(self.cells)]
                + [("open_window",), ("close_door",), ("meteorite",)])

    def apply(self, state: frozenset, act: Atom) -> frozenset:
        verb = act[0]
        if verb == "light_pixels":
            return state | {("pixel_lit", p) for p in act[1]}
        if verb == "dark_pixels":
            return state - {("pixel_lit", p) for p in act[1]}
        if verb == "write_cells":
            return state | {("cell_set", c) for c in act[1]}
        if verb == "open_window":
            return state | {("window_open",)}
        if verb == "close_door":
            return state - {("door_open",)}
        return frozenset(a for a in state
                         if a[0] not in ("window_open", "door_open",
                                         "pixel_lit", "cell_set"))


def blocks(n: int, rng: random.Random, disjoint: str = "seq-diff") -> Blocks:
    return Blocks(_names(rng, "b", n), disjoint)


def rooms(n: int, k: int, rng: random.Random) -> Rooms:
    return Rooms(_names(rng, "b", n), _names(rng, "r", k))


def display(k: int, cells: int, rng: random.Random,
            disjoint: str = "seq-diff") -> Display:
    return Display(_names(rng, "p", k), _names(rng, "m", cells), disjoint)


def random_walk(fam, init: frozenset, length: int,
                rng: random.Random) -> tuple[list[Atom], frozenset]:
    """Up to `length` applicable actions from init, and the state reached."""
    state = init
    acts: list[Atom] = []
    for _ in range(length):
        options = fam.applicable(state)
        if not options:
            break
        act = rng.choice(options)
        acts.append(act)
        state = fam.apply(state, act)
    return acts, state


# ---------------------------------------------------------------------------
# Random finite models
# ---------------------------------------------------------------------------

FORMALISMS = (
    "rel-exists", "rel-forall",
    "seq-rel-exists", "seq-rel-forall",
    "fun", "seq-fun",
    "coll-rel-exists", "coll-rel-forall", "coll-fun",
    "modal-box", "modal-diamond",
    "seq-modal-box", "seq-modal-diamond",
)

_UNIVERSAL = ("rel-forall", "seq-rel-forall", "coll-rel-forall",
              "modal-box", "seq-modal-box")


def _random_rows(rng: random.Random, n: int, functional: bool) -> list[int]:
    if functional:
        return [1 << rng.randrange(n) for _ in range(n)]
    rows = [sum(1 << t for t in range(n) if rng.random() < 0.35)
            for _ in range(n)]
    if not any(rows):
        rows[0] = 1  # a relation with no pair would be undeclared
    return rows


def _compose(first: list[int], second: list[int]) -> list[int]:
    return [_union(second, row) for row in first]


def _union(rows: list[int], mask: int) -> int:
    acc = 0
    for t, r in enumerate(rows):
        if mask >> t & 1:
            acc |= r
    return acc


def _defined(rows: list[int], q: int, universal: bool) -> int:
    """The valuation a witness q defines over rows (exists or forall)."""
    out = 0
    for s, row in enumerate(rows):
        bit = (row & ~q) == 0 if universal else (row & q) != 0
        if bit:
            out |= 1 << s
    return out


def _rel_lines(keyword: str, atom: str, rows: list[int], sits: list[str]) -> list[str]:
    return [f"{keyword} {atom} {sits[s]} {sits[t]}"
            for s, row in enumerate(rows) for t in range(len(rows)) if row >> t & 1]


def _subset(mask: int, sits: list[str]) -> str:
    return " ".join(sits[s] for s in range(len(sits)) if mask >> s & 1)


def random_model(rng: random.Random, formalism: str, n: int,
                 stored_witness: bool, name: str) -> str:
    """A model file for `formalism` with n situations.

    The action is stability-preserving with probability 0.7 and each
    fluent's valuation is witness-definable with probability 0.7, so the
    premises hold on a good share of the models. With `stored_witness`, the
    definable valuations come with their witness; otherwise the validator
    has to search for one.
    """
    functional = formalism in ("fun", "seq-fun", "coll-fun")
    universal = formalism in _UNIVERSAL
    collective = formalism.startswith("coll-")
    sequential = formalism.startswith("seq-")
    sits = [f"s{i}" for i in range(n)]
    lines = [f"model {name}", "situations " + " ".join(sits)]
    if collective:
        elems = {x: _random_rows(rng, n, functional) for x in ("x1", "x2", "x3")}
        for x, rows in elems.items():
            lines += _rel_lines("crel", x, rows, sits)
        preserved = [elems["x1"], elems["x2"]]
        lines += ["aspect action act ({x3})"]
    else:
        rels = {a: _random_rows(rng, n, functional) for a in ("a1", "a2", "a3")}
        lines.append("atoms a1 a2 a3")
        for a, rows in rels.items():
            if functional:
                lines.append(f"functional {a}")
            lines += _rel_lines("rel", a, rows, sits)
        if sequential:
            alpha = _compose(rels["a1"], rels["a3"])
            alpha_text = "(a1, a3)"
        else:
            alpha = rels["a1"]
            alpha_text = "(a1)"
        preserved = [alpha]
        lines += ["aspect action act (a2)", f"dpair {alpha_text} (a2)"]
    # The action map: within the classes of equal preserved rows, or anywhere.
    signature = [tuple(rows[s] for rows in preserved) for s in range(n)]
    if rng.random() < 0.7:
        act = [rng.choice([t for t in range(n) if signature[t] == signature[s]])
               for s in range(n)]
    else:
        act = [rng.randrange(n) for _ in range(n)]
    lines += [f"act act {sits[s]} -> {sits[act[s]]}" for s in range(n)]
    for p in ("p1", "p2"):
        definable = rng.random() < 0.7
        if collective:
            qs = {x: rng.randrange(1 << n) for x in ("x1", "x2")}
            val = _defined(elems["x1"], qs["x1"], universal) & \
                _defined(elems["x2"], qs["x2"], universal)
        else:
            q = rng.randrange(1 << n)
            val = _defined(alpha, q, universal)
        if not definable:
            val = rng.randrange(1 << n)
        lines.append(f"val {p} {_subset(val, sits)}".rstrip())
        if collective:
            lines.append(f"aspect fluent {p} ({{x1,x2}})")
            if stored_witness and definable:
                lines += [f"cwitness {p} {formalism} {x} {_subset(q, sits)}".rstrip()
                          for x, q in qs.items()]
        else:
            lines.append(f"aspect fluent {p} {alpha_text}")
            if stored_witness and definable:
                lines.append(f"witness {p} {formalism} {_subset(q, sits)}".rstrip())
    return "\n".join(lines) + "\n"
