"""Seeded random graphs: three generator families, three size buckets.

Every graph is a pure function of (bucket, master seed, labels), so anything
built on top of the generators — datasets, exemplars, whole experiments —
can be regenerated bit-for-bit on another machine.
"""

from graphbench import (
    ALL_BUCKETS,
    GeneratorConfig,
    derive_seed,
    gen_er,
    gen_er_dag,
    gen_random_bipartite,
    SMALL,
)


def describe(title, g):
    kind = "directed" if g.directed else "undirected"
    print(f"{title}: {kind}, n={g.n}, m={g.edge_count}")
    print(f"  edges: {g.edges}")


def main():
    cfg = GeneratorConfig(bucket=SMALL)

    print("== One seed, one graph ==")
    seed = derive_seed(0, "demo", 1)
    describe("G(n, p) sample", gen_er(cfg, seed))
    again = gen_er(cfg, seed)
    print(f"  regenerating with the same seed is identical: {gen_er(cfg, seed) == again}")

    print("\n== The three families share a skeleton recipe ==")
    describe("undirected ", gen_er(cfg, seed))
    describe("DAG        ", gen_er_dag(cfg, seed))  # same pairs, oriented low -> high
    describe("bipartite  ", gen_random_bipartite(cfg, seed))

    print("\n== Size buckets bound the node count ==")
    for bucket in ALL_BUCKETS:
        sizes = [
            gen_er(GeneratorConfig(bucket=bucket), derive_seed(0, bucket.name, i)).n
            for i in range(200)
        ]
        print(f"  {bucket.name}: n ranges over [{min(sizes)}, {max(sizes)}] "
              f"(allowed [{bucket.n_min}, {bucket.n_max}])")


if __name__ == "__main__":
    main()
