.PHONY: all build lint test bench benchcheck scenarios perf benchgate clean

all: build lint test

build:
	dune build

# All analyzers: manetlint (lexical), manetsem (AST-level semantic
# dataflow), manetdom (domain safety), manethot (hot-path allocation &
# complexity), plus `manetsim scenario check` over the committed
# example scenarios.  Fails on any finding not pinned in the
# analyzers' baselines.
lint:
	dune build @lint

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Benchmark digest gate: every workload must reproduce the digests
# recorded in manetbench/digests.ml at a seed of its own (7), which the
# last stdout line reports as "correct":true.  One short pass each.
BENCH_WORKLOADS = bootstrap_grid400 routing_mobile30 secure_rsa30

benchcheck:
	@for w in $(BENCH_WORKLOADS); do \
	  last=$$(bash manetbench/run.sh --workload $$w --seed 7 --seconds 1 \
	    --trace 0 | tail -n 1); \
	  echo "$$w: $$last"; \
	  case "$$last" in \
	    *'"correct":true'*) ;; \
	    *) echo "::error::$$w did not reproduce its recorded digests" >&2; \
	       exit 1 ;; \
	  esac; \
	done

# Validate and smoke-run every committed scenario file.
scenarios:
	dune exec bin/manetsim.exe -- scenario check examples/scenarios/*.scn
	mkdir -p _scn_out
	for f in examples/scenarios/*.scn; do \
	  dune exec bin/manetsim.exe -- run --scenario $$f --out-dir _scn_out || exit 1; \
	done

# Regenerate this PR's perf snapshot and gate it against the previous
# PR's committed one (hard-fails only on matching host core counts).
perf:
	dune exec bench/main.exe -- perf

benchgate: perf
	dune exec tools/benchgate/main.exe -- BENCH_9.json BENCH_10.json

benchtrend:
	dune exec tools/benchtrend/main.exe -- BENCH_6.json BENCH_7.json BENCH_8.json BENCH_9.json BENCH_10.json

clean:
	dune clean
