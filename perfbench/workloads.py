"""Seeded generators for the benchmark's three workloads.

Every workload is a fixed sequence of amalgamd JSONL query lines made from
the seed alone: the same seed gives byte-identical lines. Each generator
fixes the *composition* of its sequence (how many lines of each kind, which
share builds a witness, how many keys) and lets the seed pick only the
details (guards, skeleton shapes, state names, accepting states, order), so
different seeds give statistically alike workloads.

A query is a dict without "id"; `spec_bytes` serializes it, and run.py
prefixes the id when it sends the line.
"""

import json
import random

GRAPH_SCHEMA = {"relations": [["E", 2], ["red", 1]]}
ORDERS_SCHEMA = {"relations": [["lt", 2]]}
EQUIV_SCHEMA = {"relations": [["eqv", 2]]}
EDGE_SCHEMA = {"relations": [["E", 2]]}
RICH_SCHEMA = {"relations": [["E", 2], ["F", 2], ["red", 1]]}
NFAS = ["all_ab", "alternating_ab", "aplus_bplus", "mod2", "mod3", "mod5"]
NFA_LETTERS = {"all_ab": "ab", "alternating_ab": "ab", "aplus_bplus": "ab",
               "mod2": "a", "mod3": "a", "mod5": "a"}
# all_trees is left out: one cold query over it costs about 2 s, which
# would make a handful of lines the whole workload.
AUTOMATA = ["chains", "two_level", "comb", "alternating_chains"]
AUTOMATON_LABELS = {"chains": "a", "two_level": "ra",
                    "comb": "ab", "alternating_chains": "ab"}
PREFIXES = ["s", "q", "n", "st", "v", "p", "c", "w", "node", "loc"]


def spec_bytes(query):
    return json.dumps(query, separators=(",", ":"), sort_keys=False)


# ---- skeletons ----

def rule_endpoints(n_states, shape):
    """The (from, to) state indices of the n_states - 1 rules of a chain or
    a binary-branching skeleton, in rule order."""
    if shape == "chain":
        return [(i - 1, i) for i in range(1, n_states)]
    return [((i - 1) // 2, i) for i in range(1, n_states)]


def states_json(n_states, prefix, accepting):
    out = []
    for i in range(n_states):
        state = {"name": "%s%d" % (prefix, i)}
        if i == 0:
            state["initial"] = True
        if i in accepting:
            state["accepting"] = True
        out.append(state)
    return out


def linear_query(kind, regs, n_states, shape, prefix, accepting, guards,
                 strategy, witness=False, extra=None):
    """A kind system/words/trees query whose rule i carries guards[i]."""
    ends = rule_endpoints(n_states, shape)
    rules = [{"from": "%s%d" % (prefix, a), "to": "%s%d" % (prefix, b),
              "guard": g} for (a, b), g in zip(ends, guards)]
    q = {"kind": kind}
    q.update(extra or {})
    q["strategy"] = strategy
    if witness:
        q["build_witness"] = True
    q["system"] = {"registers": regs,
                   "states": states_json(n_states, prefix, accepting),
                   "rules": rules}
    return q


def branching_query(cls, schema, regs, n_states, prefix, accepting,
                    guard_groups):
    """A branching query: rule i leaves state i's parent with one branch per
    guard in guard_groups[i], all to states beyond it."""
    rules = []
    for i, group in enumerate(guard_groups, start=1):
        frm = (i - 1) // 2
        branches = [{"guard": g, "to": "%s%d" % (prefix, min(i + j, n_states - 1))}
                    for j, g in enumerate(group)]
        rules.append({"from": "%s%d" % (prefix, frm), "branches": branches})
    return {"kind": "branching", "class": cls, "schema": schema,
            "system": {"registers": regs,
                       "states": states_json(n_states, prefix, accepting),
                       "rules": rules}}


# ---- guards ----

def variables(k):
    out = []
    for r in range(k):
        out += ["x%d_old" % r, "x%d_new" % r]
    return out


def atoms(vocab, k):
    """Every atom over the registers' old/new variables for one schema."""
    vs = variables(k)
    out = []
    for rel, arity in vocab:
        if arity == 1:
            out += ["%s(%s)" % (rel, v) for v in vs]
        else:
            out += ["%s(%s, %s)" % (rel, a, b) for a in vs for b in vs]
    out += ["%s = %s" % (a, b) for i, a in enumerate(vs) for b in vs[i + 1:]]
    return out


def random_guard(atom_list, rng, negate=0.3, disjoin=0.15, max_lits=3):
    def conj():
        lits = rng.sample(atom_list, rng.randint(1, min(max_lits, len(atom_list))))
        return " & ".join(("!" + a if " = " not in a else a.replace(" = ", " != "))
                          if rng.random() < negate else a for a in lits)
    g = conj()
    if rng.random() < disjoin:
        g = "(%s) | (%s)" % (g, conj())
    return g


# ---- the workloads ----

class Workload:
    def __init__(self, name, connections, cache_max, store_in_rounds=True):
        self.name = name
        self.connections = connections
        self.cache_max = cache_max  # daemon --cache-max-entries (0 = none)
        # Whether the measured rounds run with --store-dir. Without it, the
        # store size comes from one more round with a store.
        self.store_in_rounds = store_in_rounds
        self.setup = []             # queries replayed on connection 0
        self.populate = []          # store_mixed: queries before maintain
        self.lines = []             # the measured sequence
        self.meta = []              # per measured line: dict of properties

    def add(self, query, key, guard_set, conn=None, **props):
        """Appends a measured line, sent on connection `conn` (default: the
        lines are dealt round-robin)."""
        if conn is None:
            conn = len(self.lines) % self.connections
        self.lines.append(query)
        props.update(key=key, guard_set=guard_set, conn=conn)
        self.meta.append(props)


def key_for(kind, backend, k, guards):
    """Today's graph-key identity: backend + k + the guard of every rule."""
    return (kind, backend, k, tuple(guards))


def guard_set_for(kind, backend, k, guards):
    """The identity guard normalization would give: distinct guards only."""
    return (kind, backend, k, frozenset(guards))


# hot_replay: a handful of 1-register graph keys, all built in set-up.
HOT_KEYS = [
    ["E(x0_old, x0_new)"] * 63,
    ["E(x0_old, x0_new)"] * 31,
    ["E(x0_old, x0_new)", "E(x0_new, x0_old)"] * 8,
    ["E(x0_old, x0_new) & red(x0_new)"] * 40 + ["x0_old != x0_old"]
    + ["E(x0_old, x0_new) & red(x0_new)"] * 7,
    ["E(x0_old, x0_new)", "red(x0_old) & x0_old = x0_new",
     "E(x0_new, x0_old) & !red(x0_new)"] * 8,
    ["E(x0_old, x0_new) & x0_old != x0_new"] * 5 + ["red(x0_old) & !red(x0_old)"]
    + ["E(x0_old, x0_new) & x0_old != x0_new"] * 2,
]
HOT_LINES = 2400
HOT_SPECS_PER_KEY = 16
HOT_WITNESS_EVERY = 8


def hot_replay(seed):
    rng = random.Random("hot_replay/%d" % seed)
    w = Workload("hot_replay", connections=4, cache_max=0)
    pools = []
    for guards in HOT_KEYS:
        n = len(guards) + 1
        key = key_for("system", "all", 1, guards)
        gset = guard_set_for("system", "all", 1, guards)
        w.setup.append((linear_query("system", ["x0"], n, "chain", "s", {n - 1},
                                     guards, "eager",
                                     extra={"class": "all",
                                            "schema": GRAPH_SCHEMA}),
                        key, gset))
        pool = []
        for j in range(HOT_SPECS_PER_KEY):
            shape = "chain" if j % 2 == 0 else "branch"
            accepting = {rng.randrange(n // 2, n)}
            if j % 4 == 3:
                accepting.add(rng.randrange(1, n))
            pool.append(dict(shape=shape, n=n, guards=guards, key=key,
                             gset=gset, prefix=rng.choice(PREFIXES),
                             accepting=accepting,
                             strategy=rng.choice(["eager", "onthefly"])))
        pools.append(pool)

    def make(spec, witness):
        return linear_query("system", ["x0"], spec["n"], spec["shape"],
                            spec["prefix"], spec["accepting"], spec["guards"],
                            spec["strategy"], witness,
                            extra={"class": "all", "schema": GRAPH_SCHEMA})

    # Every key gets the same number of lines whatever the seed, in shuffled
    # order; every HOT_WITNESS_EVERY-th line builds a witness.
    order = [i % len(pools) for i in range(HOT_LINES)]
    rng.shuffle(order)
    for j, ki in enumerate(order):
        spec = rng.choice(pools[ki])
        witness = j % HOT_WITNESS_EVERY == HOT_WITNESS_EVERY - 1
        w.add(make(spec, witness), spec["key"], spec["gset"], kind="system",
              strategy=spec["strategy"], k=1, witness=witness)
    warm = random.Random("hot_replay/warm/%d" % seed)
    for _ in range(200):
        spec = warm.choice(warm.choice(pools))
        w.setup.append((make(spec, False), spec["key"], spec["gset"]))
    return w


class UniqueGuards:
    """Draws guard lists whose distinct-guard set is new for its backend."""

    def __init__(self, rng):
        self.rng = rng
        self.seen = set()

    def draw(self, kind, backend, k, atom_list, n_rules, n_distinct, **kw):
        return self.draw_from(kind, backend, k, n_rules, n_distinct,
                              lambda: random_guard(atom_list, self.rng, **kw))

    def draw_from(self, kind, backend, k, n_rules, n_distinct, make_guard):
        """n_rules guards, n_distinct of them distinct, from make_guard()."""
        for _ in range(1000):
            distinct = []
            while len(distinct) < n_distinct:
                g = make_guard()
                if g not in distinct:
                    distinct.append(g)
            gset = guard_set_for(kind, backend, k, distinct)
            if gset in self.seen:
                continue
            self.seen.add(gset)
            guards = distinct + [self.rng.choice(distinct)
                                 for _ in range(n_rules - n_distinct)]
            self.rng.shuffle(guards)
            return guards, gset
        raise RuntimeError("guard space exhausted")


# cold_build: (category, count per sequence). Every line is its own key.
# The categories name the front door, the class (with its schema) and k.
COLD_MIX = [
    ("system_all_k1", 310),
    ("system_rich_k1", 100),
    ("system_orders_k1", 75),
    ("system_equiv_k1", 75),
    ("system_orders_k2", 40),
    ("system_equiv_k2", 40),
    ("words_k1", 140),
    ("trees_k1", 120),
    ("branching_k1", 80),
    ("system_all_k2_onthefly", 6),
    ("system_edge_k2_onthefly", 4),
    ("system_edge_k2_eager", 16),
    ("system_all_k2_eager", 2),
]
COLD_WARMUP = 160
# Two edges old -> new that pair the registers one way or the other, in
# either direction, with the atoms in either order: eight guard texts that
# swapping registers, transposing E or swapping old and new carry onto each
# other, so every one of them yields the same number of edges.
HEAVY_GUARDS = ["E(%s_%s, %s_%s) & E(%s_%s, %s_%s)" % (
    (a, o, b, n, c, o, d, n) if first else (c, o, d, n, a, o, b, n))
    for (a, b, c, d) in (("x0", "x0", "x1", "x1"), ("x0", "x1", "x1", "x0"))
    for (o, n) in (("old", "new"), ("new", "old"))
    for first in (True, False)]
COLD_CLASSES = {"all": ("all", GRAPH_SCHEMA), "rich": ("all", RICH_SCHEMA),
                "edge": ("all", EDGE_SCHEMA), "orders": ("orders", ORDERS_SCHEMA),
                "equiv": ("equiv", EQUIV_SCHEMA)}


def cold_query(cat, rng, uniq):
    """One cold line of category `cat`: (query, key, guard set, props)."""
    prefix = rng.choice(PREFIXES)
    shape = rng.choice(["chain", "branch"])
    n = rng.randint(3, 8)
    strategy = rng.choice(["eager", "onthefly"])
    if cat.startswith("system_") or cat.startswith("branching"):
        if cat.startswith("system_"):
            cls, schema = COLD_CLASSES[cat.split("_")[1]]
        else:
            cls, schema = COLD_CLASSES[rng.choice(["all", "orders"])]
        backend = cls + json.dumps(schema)
        k = 2 if "_k2" in cat else 1
        if k == 2:
            # Today a graph keeps one guard slot per rule, so the rule count
            # scales a 2-register graph's edges, bytes and RSS; fix it.
            n = 5
        # The 2-register lines fix their strategy, so the heavy tail (eager
        # full sweeps) has the same size for every seed. Their on-the-fly
        # lines use positive guards, which always hold somewhere in the
        # full class: the search exits early instead of sweeping it all.
        positive = k == 2 and cat.endswith("_onthefly")
        if k == 2 and cat.startswith(("system_all", "system_edge")):
            strategy = "onthefly" if positive else "eager"
        atom_list = atoms(schema["relations"], k)
        regs = ["x%d" % r for r in range(k)]
        if cat.startswith("branching"):
            n_rules = n - 1
            flat, gset = uniq.draw("branching", backend, k, atom_list,
                                   n_rules + 2, rng.randint(2, 4))
            groups = [flat[i:i + 1] for i in range(n_rules)]
            groups[0] = flat[n_rules:] + groups[0]
            accepting = {n - 1}
            q = branching_query(cls, schema, regs, n, prefix, accepting, groups)
            flattened = [g for group in groups for g in group]
            return q, key_for("branching", backend, k, flattened), gset, dict(
                kind="branching", strategy="eager", k=k, witness=False)
        if k == 2 and not positive and cls == "all":
            # The eager full sweeps: three guards from a family whose members
            # map onto each other by symmetries of the class, so their cost,
            # graph size and store bytes do not depend on the seed.
            guards, gset = uniq.draw_from("system", backend, k, n - 1, 3,
                                          lambda: rng.choice(HEAVY_GUARDS))
        else:
            guards, gset = uniq.draw(
                "system", backend, k, atom_list, n - 1,
                rng.randint(2, min(4, n - 1)),
                **(dict(negate=0.0, disjoin=0.0, max_lits=2) if positive else {}))
        accepting = {rng.randrange(1, n)}
        q = linear_query("system", regs, n, shape, prefix, accepting, guards,
                         strategy, extra={"class": cls, "schema": schema})
        return q, key_for("system", backend, k, guards), gset, dict(
            kind="system", strategy=strategy, k=k, witness=False)
    if cat == "words_k1":
        nfa = rng.choice(NFAS)
        vocab = [(c, 1) for c in NFA_LETTERS[nfa]] + [("lt", 2)]
        guards, gset = uniq.draw("words", nfa, 1, atoms(vocab, 1), n - 1,
                                 rng.randint(2, min(4, n - 1)))
        q = linear_query("words", ["x0"], n, shape, prefix,
                         {rng.randrange(1, n)}, guards, strategy,
                         extra={"nfa": nfa})
        return q, key_for("words", nfa, 1, guards), gset, dict(
            kind="words", strategy=strategy, k=1, witness=False)
    automaton = rng.choice(AUTOMATA)
    vocab = [(c, 1) for c in AUTOMATON_LABELS[automaton]] + [("desc", 2)]
    guards, gset = uniq.draw("trees", automaton, 1, atoms(vocab, 1),
                             n - 1, rng.randint(2, min(4, n - 1)))
    q = linear_query("trees", ["x0"], n, shape, prefix, {rng.randrange(1, n)},
                     guards, strategy, extra={"automaton": automaton})
    return q, key_for("trees", automaton, 1, guards), gset, dict(
        kind="trees", strategy=strategy, k=1, witness=False)


def cold_build(seed):
    rng = random.Random("cold_build/%d" % seed)
    uniq = UniqueGuards(rng)
    # No store while measuring: a loose write per line would put the
    # host's file system, not the sweep, in charge of the numbers.
    w = Workload("cold_build", connections=1, cache_max=0,
                 store_in_rounds=False)
    cats = [c for c, count in COLD_MIX for _ in range(count)]
    rng.shuffle(cats)
    for cat in cats:
        q, key, gset, props = cold_query(cat, rng, uniq)
        w.add(q, key, gset, category=cat, **props)
    for i in range(COLD_WARMUP):
        cat = ["system_all_k1", "words_k1", "trees_k1", "branching_k1"][i % 4]
        q, key, gset, _ = cold_query(cat, rng, uniq)
        w.setup.append((q, key, gset))
    return w


# store_mixed: persisted keys read with skew, new keys, and their re-reads.
STORE_PERSISTED = 48
STORE_CACHE_MAX = 12
STORE_READS = 840
STORE_NEW = 180
STORE_REREAD_GAP = 2


def positive_atoms():
    return atoms([("E", 2), ("red", 1)], 1)


def store_mixed(seed):
    rng = random.Random("store_mixed/%d" % seed)
    uniq = UniqueGuards(rng)
    w = Workload("store_mixed", connections=2, cache_max=STORE_CACHE_MAX)
    persisted = []
    for i in range(STORE_PERSISTED):
        cls = ["all", "orders", "equiv"][i % 3]
        schema = {"all": GRAPH_SCHEMA, "orders": ORDERS_SCHEMA,
                  "equiv": EQUIV_SCHEMA}[cls]
        n = rng.randint(4, 8)
        guards, gset = uniq.draw("system", cls, 1,
                                 atoms(schema["relations"], 1), n - 1,
                                 rng.randint(2, 3))
        persisted.append((cls, schema, n, guards, gset))
        q = linear_query("system", ["x0"], n, "chain", "s", {n - 1}, guards,
                         "onthefly", extra={"class": cls, "schema": schema})
        w.populate.append((q, key_for("system", cls, 1, guards), gset))

    def read(p):
        cls, schema, n, guards, gset = p
        q = linear_query("system", ["x0"], n, rng.choice(["chain", "branch"]),
                         rng.choice(PREFIXES), {rng.randrange(1, n)}, guards,
                         rng.choice(["eager", "onthefly"]),
                         extra={"class": cls, "schema": schema})
        return q, key_for("system", cls, 1, guards), gset

    # Zipf-skewed reads: rank r has weight 1 / (r + 1).
    weights = [1.0 / (r + 1) for r in range(STORE_PERSISTED)]
    ranked = persisted[:]
    rng.shuffle(ranked)
    kinds = ["read"] * STORE_READS + ["new"] * STORE_NEW
    rng.shuffle(kinds)
    # Per connection, lines go out in order; a re-read follows its new key
    # STORE_REREAD_GAP lines later on the same connection.
    per_conn = [[] for _ in range(w.connections)]
    pending = [[] for _ in range(w.connections)]
    for j, kind in enumerate(kinds):
        c = j % w.connections
        seq = per_conn[c]
        while pending[c] and pending[c][0][0] <= len(seq):
            _, item = pending[c].pop(0)
            seq.append(item)
        if kind == "read":
            p = rng.choices(ranked, weights)[0]
            q, key, gset = read(p)
            seq.append((q, key, gset, dict(kind="system", strategy=q["strategy"],
                                           k=1, witness=False, role="read")))
            continue
        n = rng.randint(3, 6)
        guards, gset = uniq.draw("system", "all", 1, positive_atoms(), n - 1,
                                 rng.randint(2, 3), negate=0.0, disjoin=0.0,
                                 max_lits=2)
        key = key_for("system", "all", 1, guards)
        extra = {"class": "all", "schema": GRAPH_SCHEMA}
        first = linear_query("system", ["x0"], n, "chain", rng.choice(PREFIXES),
                             {n - 1}, guards, "onthefly", extra=extra)
        again = linear_query("system", ["x0"], n, "branch", rng.choice(PREFIXES),
                             {rng.randrange(1, n)}, guards, "eager", extra=extra)
        seq.append((first, key, gset, dict(kind="system", strategy="onthefly",
                                           k=1, witness=False, role="new")))
        pending[c].append((len(seq) + STORE_REREAD_GAP,
                           (again, key, gset, dict(kind="system",
                                                   strategy="eager", k=1,
                                                   witness=False,
                                                   role="reread"))))
    for c in range(w.connections):
        per_conn[c] += [item for _, item in pending[c]]
    longest = max(len(s) for s in per_conn)
    for i in range(longest):
        for c in range(w.connections):
            if i < len(per_conn[c]):
                q, key, gset, props = per_conn[c][i]
                w.add(q, key, gset, conn=c, **props)
    return w


WORKLOADS = {"hot_replay": hot_replay, "cold_build": cold_build,
             "store_mixed": store_mixed}
