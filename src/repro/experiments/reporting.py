"""Plain-text rendering of experiment results.

The benchmark harness and the examples print these tables: they carry the same
rows/series as the paper's Figures 5-8, so a reader can compare shapes (who
wins, by roughly what factor, where the curves bend) without any plotting
dependency.
"""


def format_table(headers, rows):
    """Render ``rows`` (sequences of cells) under ``headers`` with aligned columns."""
    headers = [str(header) for header in headers]
    text_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[index]) for index, header in enumerate(headers)),
        "  ".join("-" * widths[index] for index in range(len(headers))),
    ]
    for row in text_rows:
        lines.append("  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    return "\n".join(lines)


def _format_cell(cell):
    if isinstance(cell, float):
        return "%.4g" % cell
    return str(cell)


def format_experiment1_table(rows):
    """Figure 5 as a table: quiescence time and packets per scenario and count."""
    headers = (
        "scenario",
        "sessions",
        "quiescence [ms]",
        "packets",
        "packets/session",
        "validated",
    )
    table_rows = [
        (
            row.label,
            row.sessions,
            row.quiescence_time * 1e3,
            row.total_packets,
            row.total_packets / float(row.sessions),
            "yes" if row.validated else "NO",
        )
        for row in rows
    ]
    return format_table(headers, table_rows)


def format_experiment2_table(result):
    """Figure 6 as two tables: per-phase timings and per-interval packet types."""
    phase_headers = ("phase", "joins", "leaves", "changes", "quiescence [ms]", "packets")
    phase_rows = [
        (
            phase.name,
            phase.joins,
            phase.leaves,
            phase.changes,
            duration * 1e3,
            measurement.packets,
        )
        for phase, duration, measurement in result.phase_rows()
    ]
    phase_table = format_table(phase_headers, phase_rows)

    packet_types = sorted(
        {ptype for _, counts in result.interval_series for ptype in counts}
    )
    interval_headers = ["interval start [ms]"] + packet_types + ["total"]
    interval_rows = []
    for start, counts in result.interval_series:
        row = [start * 1e3] + [counts.get(ptype, 0) for ptype in packet_types]
        row.append(sum(counts.values()))
        interval_rows.append(tuple(row))
    interval_table = format_table(interval_headers, interval_rows)
    return phase_table + "\n\n" + interval_table


def format_experiment3_table(result):
    """Figures 7 and 8 as tables: error percentiles and packets per interval."""
    sections = []
    for name in result.protocol_names():
        series = result.series(name)
        headers = (
            "time [ms]",
            "src err p10",
            "src err median",
            "src err p90",
            "src err mean",
            "link err mean",
            "packets/interval",
        )
        interval = result.config.sample_interval
        # Packet buckets are matched by index (not by float key) to avoid
        # floating-point mismatches between bucket starts and sample times.
        packets_by_bucket = {
            int(round(start / interval)): total for start, total in series.packets_series
        }
        link_by_time = dict(series.link_error_series)
        rows = []
        for time, stats in series.source_error_series:
            link_stats = link_by_time.get(time)
            bucket = int(round(time / interval)) - 1
            rows.append(
                (
                    time * 1e3,
                    stats.p10,
                    stats.median,
                    stats.p90,
                    stats.mean,
                    link_stats.mean if link_stats is not None else float("nan"),
                    packets_by_bucket.get(bucket, 0),
                )
            )
        convergence = (
            "%.4g ms" % (series.convergence_time * 1e3)
            if series.convergence_time is not None
            else "not converged"
        )
        sections.append(
            "protocol: %s   (convergence: %s, quiescent: %s, total packets: %d)\n%s"
            % (
                name,
                convergence,
                "yes" if series.quiescent else "no",
                series.total_packets,
                format_table(headers, rows),
            )
        )
    return "\n\n".join(sections)
