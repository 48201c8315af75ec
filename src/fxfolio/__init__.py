"""Currency-pair portfolio toolkit: spread markets, entropy-tilted daily
rebalancing with transaction costs, order prediction from segment cross
rates, and the guarantees that back them."""

from .backtest import (
    BacktestLedger,
    GammaSchedule,
    GapResult,
    LinearPredictor,
    UpdateConfig,
    block_partition,
    cumulative_return,
    cumulative_return_net,
    growth_rate,
    growth_rate_net,
    predict,
    run_backtest,
    single_pair_growth_rate,
    sweep,
    universality_gap,
)
from .costs import (
    CostParams,
    cost_bounds,
    cost_ratio_bound,
    solve_cost_from_drift,
)
from .crossrate import (
    FLAT,
    LOWER,
    UPPER,
    PredictorConfig,
    SegmentConfig,
    adjusted_cross_rate,
    cross_rate,
    effectiveness_ratio,
    grid_orders,
    mpcr_predict,
    mpo_predict,
    nearest_nonzero_day,
    order_of,
    predict_return,
    reference_day,
    segment_success_rates,
)
from .data_io import (
    SyntheticMarketSpec,
    SyntheticOrderSpec,
    generate_market,
    generate_order_process,
    load_rates,
    normalized_returns,
    read_ledger,
    read_returns,
    read_summary,
    symmetric_masses,
    write_ledger,
    write_rates,
    write_returns,
    write_summary,
)
from .errors import FxfolioError
from .market import (
    QuoteStack,
    RateMatrix,
    ReturnMatrix,
    ReturnStack,
    compute_return_matrix,
    compute_returns,
)
from .portfolio import (
    PortfolioMatrix,
    gross_return,
    l1_distance,
    realized_portfolio,
    relative_entropy,
    uniform_portfolio,
)
from .updates import eiitc_update, iitc_update, objective_value
from .verify import SuiteResult, bisect_cost, cost_bounds_suite, profitability_suite, universality_suite

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
