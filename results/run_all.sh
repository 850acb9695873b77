#!/bin/sh
# Regenerates every paper table/figure reproduction into results/*.txt.
# Default scale: n = 2^20 (paper: 2^29); pass a different exponent as $1.
#
# This file is the one command list for the tables; results/check.sh reads
# it too:
#   run_all.sh [N]               regenerate every table into results/
#   run_all.sh --list            names of the deterministic tables
#   run_all.sh --table NAME [N]  print one table to stdout
cd "$(dirname "$0")/.." || exit 1
B=build/bench

# Tables built from simulated time only: bit-identical on every run and at
# every worker count, so check.sh diffs them. Listed longest first, so
# check.sh's parallel run finishes early.
DETERMINISTIC="fig12b_bucket_killer.txt fig12a_increasing.txt
fig14_key_value.txt fig11c_vary_k_f64.txt batching.txt sec8_hybrid.txt
fig11a_vary_k_f32.txt fig16a_query1.txt fig11b_vary_k_u32.txt
fig16b_query2.txt fig18_perthread_variants.txt fig13_vary_n.txt
query3_lang.txt resilience.txt fig17_cost_model.txt
fig8_elems_per_thread.txt sec43_ablation_ladder.txt query4_groupby.txt"
# Tables with host wall-clock columns; they differ run to run.
WALL_CLOCK="fig15a_cpu_uniform.txt fig15b_cpu_increasing.txt
host_throughput.txt"

table() {
  case "$1" in
    fig11a_vary_k_f32.txt) $B/bench_vary_k --dtype=f32 --n_log2=$N ;;
    fig11b_vary_k_u32.txt) $B/bench_vary_k --dtype=u32 --n_log2=$N ;;
    fig11c_vary_k_f64.txt) $B/bench_vary_k --dtype=f64 --n_log2=$N ;;
    fig12a_increasing.txt)
      $B/bench_distribution --dist=increasing --n_log2=$N ;;
    fig12b_bucket_killer.txt)
      $B/bench_distribution --dist=bucket_killer --n_log2=$N ;;
    fig13_vary_n.txt) $B/bench_vary_n --min_log2=16 --max_log2=$((N+2)) ;;
    fig14_key_value.txt) $B/bench_key_value --n_log2=$N ;;
    fig15a_cpu_uniform.txt)
      $B/bench_cpu_vs_gpu --dist=uniform --n_log2=$N ;;
    fig15b_cpu_increasing.txt)
      $B/bench_cpu_vs_gpu --dist=increasing --n_log2=$N ;;
    fig16a_query1.txt) $B/bench_engine --query=1 --n_log2=$N ;;
    fig16b_query2.txt) $B/bench_engine --query=2 --n_log2=$N ;;
    query3_lang.txt) $B/bench_engine --query=3 --n_log2=$N ;;
    query4_groupby.txt) $B/bench_engine --query=4 --n_log2=$N ;;
    fig17_cost_model.txt) $B/bench_cost_model --n_log2=$N ;;
    sec43_ablation_ladder.txt) $B/bench_ablation --sweep=opts --n_log2=$N ;;
    fig8_elems_per_thread.txt) $B/bench_ablation --sweep=B --n_log2=$N ;;
    fig18_perthread_variants.txt) $B/bench_perthread_variants --n_log2=$N ;;
    sec8_hybrid.txt) $B/bench_hybrid --n_log2=$N ;;
    resilience.txt) $B/bench_resilience --n_log2=$N ;;
    host_throughput.txt)
      $B/bench_sim_host --n_log2=16 && echo &&
        $B/bench_sim_host --n_log2=$N --json_out=BENCH_sim_host.json ;;
    batching.txt)
      echo "# Batched execution (engine::BatchExecutor): Q1..Q4 tweet-query mix,"
      echo "# n=2^$N rows. Streams overlap in simulated time; host execution is"
      echo "# sequential so per-query results are bit-identical to the serial path."
      for b in 1 4 16; do
        echo; echo "## batch=$b streams=$b (pooled)"
        $B/bench_engine --batch=$b --streams=$b --n_log2=$N || return
      done
      echo; echo "## batch=16 streams=16 (--no_pool baseline)"
      $B/bench_engine --batch=16 --streams=16 --no_pool=true --n_log2=$N ;;
    *) echo "unknown table: $1" >&2; return 2 ;;
  esac
}

case "$1" in
  --list)
    echo $DETERMINISTIC | tr ' ' '\n' ;;
  --table)
    N=${3:-20}
    table "$2" ;;
  *)
    N=${1:-20}
    for t in $DETERMINISTIC $WALL_CLOCK; do
      echo "+ $t" >&2
      table "$t" > "results/$t" || exit 1
    done ;;
esac
