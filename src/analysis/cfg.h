// CFG utilities shared by the analyses and the transforms.
#pragma once

#include <vector>

#include "src/ir/function.h"

namespace twill {

/// Blocks whose terminator is a `ret`.
std::vector<BasicBlock*> exitBlocks(Function& f);

/// Splits the edge pred -> succ by inserting a fresh block containing only a
/// branch to `succ`, rewiring pred's terminator and succ's PHIs. Returns the
/// new block. Used by loop-simplify and the DSWP consume placement.
BasicBlock* splitEdge(Function& f, BasicBlock* pred, BasicBlock* succ, const std::string& name);

}  // namespace twill
