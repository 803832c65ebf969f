/**
 * @file
 * Plain-text table renderer for bench harness output.
 *
 * The `paper` tool prints every figure and table it reproduces (one
 * function each under bench/figures/) through this renderer, which
 * keeps those outputs aligned and uniform.
 */

#ifndef MOLECULE_SIM_TABLE_HH
#define MOLECULE_SIM_TABLE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace molecule::sim {

/**
 * Column-aligned table with a title and header row.
 *
 * @code
 *   Table t("Figure 8: nIPC latency (us)");
 *   t.header({"msg size", "nIPC-Base", "nIPC-MPSC"});
 *   t.row({"16B", "141.2", "88.4"});
 *   t.print();
 * @endcode
 */
class Table
{
  public:
    explicit Table(std::string title) : title_(std::move(title)) {}

    void header(std::vector<std::string> cells);

    void row(std::vector<std::string> cells);

    /** Format a double with @p decimals places (row-building helper). */
    static std::string num(double v, int decimals = 2);

    /** Format a 64-bit digest as 16 lowercase hex digits. */
    static std::string hex(std::uint64_t v);

    /** Render to a string (unit-testable). */
    std::string render() const;

    /** Render to stdout. */
    void print() const;

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace molecule::sim

#endif // MOLECULE_SIM_TABLE_HH
