#ifndef TPGNN_NN_NN_H_
#define TPGNN_NN_NN_H_

// Umbrella header for the neural-network module library.

#include "nn/attention.h"     // IWYU pragma: export
#include "nn/gru_cell.h"      // IWYU pragma: export
#include "nn/init.h"          // IWYU pragma: export
#include "nn/linear.h"        // IWYU pragma: export
#include "nn/lstm_cell.h"     // IWYU pragma: export
#include "nn/module.h"        // IWYU pragma: export
#include "nn/optimizer.h"     // IWYU pragma: export
#include "nn/time_encoding.h" // IWYU pragma: export

#endif  // TPGNN_NN_NN_H_
