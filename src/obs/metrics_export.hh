/**
 * @file
 * Telemetry exporters: OpenMetrics-style text and JSON-lines
 * timeline.
 *
 * Two views of one TimeSeries:
 *  - openMetricsText(): the *cumulative* state at call time, one
 *    family per metric name with tenant/node labels — counters,
 *    gauges, and histogram summaries (count, sum, p50/p99 quantiles).
 *    The "scrape" view, suitable for eyeballing or diffing run
 *    totals.
 *  - jsonLinesTimeline(): one JSON object per retained closed window
 *    — the *time-resolved* view the CI artifact uploads and offline
 *    analysis consumes (`jq`-able, one line per window).
 *
 * windowJson() renders a single window and is shared with the flight
 * recorder's bundles.
 *
 * All output is byte-deterministic for a given collector state:
 * series iterate in identity order (metric, tenant, node — see
 * TimeSeries::idsByIdentity), never in creation order, and every
 * floating-point value prints through one fixed "%.3f" formatter.
 */

#ifndef MOLECULE_OBS_METRICS_EXPORT_HH
#define MOLECULE_OBS_METRICS_EXPORT_HH

#include <string>

#include "obs/timeseries.hh"

namespace molecule::obs {

/** Cumulative state of every series, OpenMetrics-flavoured text. */
std::string openMetricsText(const TimeSeries &ts);

/** One JSON object per retained closed window, newline-terminated. */
std::string jsonLinesTimeline(const TimeSeries &ts);

/** One window as a single-line JSON object (no trailing newline). */
std::string windowJson(const TimeSeries &ts, const WindowRecord &w);

/** Write @p text to @p path. @retval false on I/O failure. */
bool writeText(const std::string &path, const std::string &text);

} // namespace molecule::obs

#endif // MOLECULE_OBS_METRICS_EXPORT_HH
