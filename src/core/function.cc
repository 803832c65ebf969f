#include "core/function.hh"

#include "sim/logging.hh"

namespace molecule::core {

void
FunctionRegistry::add(FunctionDef def)
{
    MOLECULE_ASSERT(!def.name.empty(), "function needs a name");
    defs_[def.name] = std::move(def);
}

const FunctionDef &
FunctionRegistry::find(const std::string &name) const
{
    auto it = defs_.find(name);
    if (it == defs_.end())
        sim::fatal("unknown function '%s'", name.c_str());
    return it->second;
}

const FunctionDef *
FunctionRegistry::findPtr(const std::string &name) const
{
    auto it = defs_.find(name);
    return it == defs_.end() ? nullptr : &it->second;
}

bool
FunctionRegistry::has(const std::string &name) const
{
    return defs_.count(name) != 0;
}

std::string_view
FunctionRegistry::stableName(const FunctionDef &fn) const
{
    auto it = defs_.find(fn.name);
    if (it == defs_.end())
        sim::fatal("unknown function '%s'", fn.name.c_str());
    return it->first;
}

std::vector<const sandbox::FunctionImage *>
FunctionRegistry::imagesForTemplates() const
{
    std::vector<const sandbox::FunctionImage *> out;
    for (const auto &[name, def] : defs_)
        if (def.cpuWork)
            out.push_back(&def.cpuWork->image);
    return out;
}

} // namespace molecule::core
