#!/usr/bin/env bash
# Regenerates the paper's figures as PNGs, if gnuplot is installed.
#
# Data flows through the benches' --json exports (validated, provenance-
# stamped) rather than scraping stdout, so a formatting tweak in a bench's
# human-readable table can never silently corrupt a figure. The raw .json
# files are kept next to the .dat/.png outputs for auditing.
#
# Also renders an observability panel: per-cause drop rates and path-health
# gauges over sim time, from a chaos_sweep --timeseries CSV.
#
# Usage: scripts/plot_figures.sh [output-dir]
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-plots}"
mkdir -p "$out"

command -v gnuplot >/dev/null || {
  echo "gnuplot not found; run the benches with --json and plot manually" >&2
  exit 1
}

# Extracts one section (a metrics::Series JSON array) from a --json report
# into whitespace-separated columns, first column = x, in label order.
section_to_dat() { # <report.json> <section> <out.dat>
  python3 - "$1" "$2" > "$3" <<'PY'
import json, sys
with open(sys.argv[1], encoding="utf-8") as fh:
    doc = json.load(fh)
rows = doc["sections"][sys.argv[2]]
if not rows:
    raise SystemExit(f"section {sys.argv[2]} is empty")
labels = list(rows[0].keys())  # x label first; insertion order preserved
print("# " + "\t".join(labels))
for row in rows:
    print("\t".join(str(row[label]) for label in labels))
PY
}

# Figure 1: lifetime CDF.
./build/bench/fig1_lifetime_cdf --json "$out/fig1.json" > /dev/null
section_to_dat "$out/fig1.json" cdf "$out/fig1.dat"
gnuplot <<EOF
set terminal png size 800,600
set output "$out/fig1.png"
set xlabel "Node lifetimes (x10^4 sec)"
set ylabel "CDF"
set key bottom right
plot "$out/fig1.dat" using 1:2 with lines title "measured (stand-in)", \
     "$out/fig1.dat" using 1:3 with lines title "Pareto(0.83, 1560s)"
EOF

# Figure 2: observations. Columns: k, then sim/model pairs for
# availability 0.70, 0.86, 0.95.
./build/bench/fig2_observations --json "$out/fig2.json" > /dev/null
section_to_dat "$out/fig2.json" pk_curves "$out/fig2.dat"
gnuplot <<EOF
set terminal png size 800,600
set output "$out/fig2.png"
set xlabel "k (number of paths)"
set ylabel "P(k) (probability of success)"
set yrange [0:1]
set key bottom right
plot "$out/fig2.dat" using 1:2 with linespoints title "Obser. 3 (0.70)", \
     "$out/fig2.dat" using 1:4 with linespoints title "Obser. 2 (0.86)", \
     "$out/fig2.dat" using 1:6 with linespoints title "Obser. 1 (0.95)"
EOF

# Figure 3: replication factor. Columns: k, sim/model pairs for r=2,3,4.
./build/bench/fig3_replication_factor --json "$out/fig3.json" > /dev/null
section_to_dat "$out/fig3.json" pk_curves "$out/fig3.dat"
gnuplot <<EOF
set terminal png size 800,600
set output "$out/fig3.png"
set xlabel "k (number of paths)"
set ylabel "P(k) (probability of success)"
set yrange [0:1]
plot "$out/fig3.dat" using 1:2 with linespoints title "r=2", \
     "$out/fig3.dat" using 1:4 with linespoints title "r=3", \
     "$out/fig3.dat" using 1:6 with linespoints title "r=4"
EOF

# Figure 4: bandwidth.
./build/bench/fig4_bandwidth --json "$out/fig4.json" > /dev/null
section_to_dat "$out/fig4.json" bandwidth_kb "$out/fig4.dat"
gnuplot <<EOF
set terminal png size 800,600
set output "$out/fig4.png"
set xlabel "k (number of paths)"
set ylabel "Bandwidth cost (KB)"
plot "$out/fig4.dat" using 1:2 with linespoints title "r=2", \
     "$out/fig4.dat" using 1:3 with linespoints title "r=3", \
     "$out/fig4.dat" using 1:4 with linespoints title "r=4"
EOF

# Observability panel: a small traced chaos run with the windowed sampler
# and health scoreboard on, then drop-rate + path-health trajectories from
# the time-series CSV (sim-time seconds on x).
./build/bench/chaos_sweep --nodes 64 --trace "$out/chaos-trace.json" \
    --timeseries "$out/timeseries.csv" --health --json "$out/chaos.json" \
    > /dev/null
python3 - "$out/timeseries.csv" "$out" <<'PY'
import csv, sys
out_dir = sys.argv[2]
drops = {}   # cause -> {t_s: rate}; series may appear mid-run
health = {}  # gauge -> {t_s: value}
with open(sys.argv[1], newline="", encoding="utf-8") as fh:
    for row in csv.DictReader(fh):
        t_s = int(row["end_us"]) / 1e6
        series = row["series"].strip('"')
        if series.startswith("net_drops_total{cause="):
            cause = series[len("net_drops_total{cause="):-1]
            drops.setdefault(cause, {})[t_s] = float(row["rate_per_s"])
        elif series in ("health_stalled_paths",
                        "health_churn_transitions_window"):
            health.setdefault(series, {})[t_s] = float(row["value"])

def write_dat(path, columns, fmt):
    # First line is an uncommented header for gnuplot's columnheader().
    times = sorted({t for values in columns.values() for t in values})
    keys = sorted(columns)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t_s\t" + "\t".join(keys) + "\n")
        for t in times:
            cells = "\t".join(fmt % columns[k].get(t, 0.0) for k in keys)
            fh.write(f"{t:.1f}\t{cells}\n")

if not drops or not health:
    raise SystemExit("timeseries CSV is missing drop or health series")
write_dat(f"{out_dir}/drop_rates.dat", drops, "%.6f")
write_dat(f"{out_dir}/path_health.dat", health, "%.1f")
print(f"drop causes: {sorted(drops)}; health gauges: {sorted(health)}")
PY
ncauses=$(head -1 "$out/drop_rates.dat" | awk '{print NF-1}')
gnuplot <<EOF
set terminal png size 1000,600
set output "$out/obs_panel.png"
set multiplot layout 2,1 title "Chaos run observability (64 nodes)"
set xlabel "sim time (s)"
set ylabel "drops/s (30 s windows)"
set key outside right
plot for [i=2:$((ncauses + 1))] "$out/drop_rates.dat" using 1:i \
     with lines title columnheader(i)
set ylabel "path health"
plot "$out/path_health.dat" using 1:2 with steps title columnheader(2), \
     "$out/path_health.dat" using 1:3 with steps title columnheader(3)
unset multiplot
EOF

# Overload panel: a 1-seed overload sweep, then per-class goodput under
# each load shape with shedding on vs blind tail drop. The clustered bars
# are the graceful-degradation claim at a glance: under the flash crowd
# the shed arm holds interactive goodput while the drop arm collapses.
./build/bench/chaos_sweep --overload-sweep --ovl-seeds 1 \
    --json "$out/overload.json" > /dev/null
python3 - "$out/overload.json" "$out" <<'PY'
import json, sys
with open(sys.argv[1], encoding="utf-8") as fh:
    rows = json.load(fh)["sections"]["overload"]
# One line per (protocol, shape): label, then shed/drop pairs of
# interactive and total goodput.
cells = {(r["protocol"], r["shape"], r["arm"]): r for r in rows}
protocols = list(dict.fromkeys(r["protocol"] for r in rows))
shapes = list(dict.fromkeys(r["shape"] for r in rows))
with open(f"{sys.argv[2]}/overload.dat", "w", encoding="utf-8") as fh:
    fh.write("label\tinter_shed\tinter_drop\ttotal_shed\ttotal_drop\n")
    for proto in protocols:
        for shape in shapes:
            shed, drop = cells[(proto, shape, "shed")], \
                         cells[(proto, shape, "drop")]
            fh.write(f"{proto}/{shape}\t{shed['inter_gp']}\t"
                     f"{drop['inter_gp']}\t{shed['goodput']}\t"
                     f"{drop['goodput']}\n")
PY
gnuplot <<EOF
set terminal png size 1000,600
set output "$out/overload_panel.png"
set title "Overload resilience: goodput by load shape (shed vs tail drop)"
set style data histograms
set style histogram clustered gap 1
set style fill solid 0.8 border -1
set yrange [0:1.05]
set ylabel "goodput (delivered / attempted)"
set xtics rotate by -30
set key outside right
plot "$out/overload.dat" using 2:xtic(1) title "interactive, shed", \
     "" using 3 title "interactive, drop", \
     "" using 4 title "total, shed", \
     "" using 5 title "total, drop"
EOF

echo "wrote $out/fig{1,2,3,4}.png, $out/obs_panel.png and $out/overload_panel.png"
echo "(fig5 prints one block per (mix, r); plot from its --json manually)"
